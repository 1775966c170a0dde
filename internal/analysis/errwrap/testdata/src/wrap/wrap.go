// Package wrap is the errwrap corpus: every finding shape for the %w rule
// and the error-text-comparison rule, plus the idioms that must stay
// silent.
package wrap

import (
	"errors"
	"fmt"
	"strings"
)

// ErrEvicted mimics the engine's sentinel.
var ErrEvicted = errors.New("evicted from session")

// flattens shows every way to lose a typed error in a wrap.
func flattens(err error, round int) {
	_ = fmt.Errorf("round %d: %v", round, err)   // want `error formatted with %v loses its type`
	_ = fmt.Errorf("round %d: %s", round, err)   // want `error formatted with %s loses its type`
	_ = fmt.Errorf("50%%: %v", err)              // want `error formatted with %v loses its type`
	_ = fmt.Errorf("pad %*d: %v", 8, round, err) // want `error formatted with %v loses its type`
}

// wraps shows the required idiom, including a Go 1.20 multi-wrap.
func wraps(err error, round int) {
	_ = fmt.Errorf("round %d: %w", round, err)
	_ = fmt.Errorf("%w: %w", err, ErrEvicted)
	_ = fmt.Errorf("no error args here: %d of %s", round, "text")
}

// nonConstFormat cannot be analyzed and is skipped.
func nonConstFormat(f string, err error) {
	_ = fmt.Errorf(f, err)
}

// textCompare matches error text directly.
func textCompare(err error) bool {
	if err.Error() == "evicted from session" { // want `comparing error text`
		return true
	}
	return err.Error() != "ok" // want `comparing error text`
}

// textSearch matches error text through the strings package.
func textSearch(err error) bool {
	if strings.Contains(err.Error(), "evicted") { // want `matching on error text`
		return true
	}
	return strings.HasPrefix(err.Error(), "fl:") // want `matching on error text`
}

// typedMatch is the required idiom.
func typedMatch(err error) bool {
	return errors.Is(err, ErrEvicted)
}

// shim is what a sanctioned wire-boundary exception would look like; the
// tree has none since flrpc stopped receiving errors as flattened text.
func shim(err error) bool {
	//lint:allow errwrap -- this peer delivers errors as text only
	return strings.Contains(err.Error(), "evicted from session")
}

// indirectText is a known, documented hole: once the text is in a plain
// string the analyzer no longer sees the error provenance.
func indirectText(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "evicted")
}
