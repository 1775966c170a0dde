// Package doccmd checks the command lines the docs quote against a
// command's flag set, so a deleted or renamed flag fails a test instead of
// leaving a stale doc.
package doccmd

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Check parses every command line of name that README.md and EXPERIMENTS.md
// quote, each with a fresh flag set from newFlags: fenced lines joined
// across backslash continuations and inline code spans, each cut at a
// comment or a shell operator. A parse error or a leftover argument fails
// t, as does a name the docs never quote. It runs from a command's package
// directory, cmd/<name>, two levels below the docs.
func Check(t testing.TB, name string, newFlags func() *flag.FlagSet) {
	t.Helper()
	var text string
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		text += strings.ReplaceAll(string(b), "\\\n", " ") + "\n"
	}
	quoted := strings.Split(text, name+" ")[1:]
	if len(quoted) == 0 {
		t.Fatalf("the docs quote no %s command", name)
	}
	for _, part := range quoted {
		line, _, _ := strings.Cut(part, "\n")
		if i := strings.IndexAny(line, "`#&|;>"); i >= 0 {
			line = line[:i]
		}
		args := strings.Fields(line)
		fs := newFlags()
		fs.SetOutput(io.Discard)
		if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
			t.Errorf("%s %s: %v, %d arguments left over", name, strings.Join(args, " "), err, fs.NArg())
		}
	}
}
