package fl

import (
	"errors"
	"fmt"
)

// ErrModeRefused is the mode table's error: every refusal it makes wraps
// it. Match with errors.Is.
var ErrModeRefused = errors.New("mode combination refused")

// modeTable is the mode policy, printed in DESIGN.md §5n: each row names two
// switches that do not combine, or a switch and an operation it forbids,
// with the reason. Every combination no row names runs.
var modeTable = []struct{ a, b, reason string }{
	{"Fanout", "Fanout below 2", "a fanout is 0 (flat) or at least 2"},
	{"Fanout", "fixed-fleet engine", "the in-process tree collective is the population-scale path"},
	{"Population", "AddClient", "the slots are the cohort, and membership churn is modeled by cohort sampling"},
	{"Population", "RemoveClient", "the slots are the cohort, and membership churn is modeled by cohort sampling"},
}

// CheckMode asks the mode table whether op may run under cfg's switches
// (Population, Fanout; the other fields are ignored). It
// returns nil or the first refusing row's error, which wraps
// ErrModeRefused. op is "NewEngine", "AddClient", "RemoveClient", or "" for
// the switches alone.
func CheckMode(cfg Config, op string) error {
	on := map[string]bool{
		op:                   op != "",
		"Population":         cfg.Population > 0,
		"Fanout":             cfg.Fanout != 0,
		"Fanout below 2":     cfg.Fanout < 2,
		"fixed-fleet engine": op == "NewEngine" && cfg.Population == 0,
	}
	for _, row := range modeTable {
		if on[row.a] && on[row.b] {
			return fmt.Errorf("fl: %s×%s: %s: %w", row.a, row.b, row.reason, ErrModeRefused)
		}
	}
	return nil
}
