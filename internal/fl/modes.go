package fl

import (
	"errors"
	"fmt"

	"fedsu/internal/tensor"
)

// ErrModeRefused is the mode table's error: every refusal it makes wraps
// it. Match with errors.Is.
var ErrModeRefused = errors.New("mode combination refused")

// ErrAsyncResume is the Async×Restore and Async×Checkpoint rows' own error;
// it wraps ErrModeRefused.
var ErrAsyncResume = fmt.Errorf("async engines do not resume from a checkpoint: %w", ErrModeRefused)

// modeTable is the mode policy, printed in DESIGN.md §5n: each row names two
// switches that do not combine, or a switch and an operation it forbids,
// with the reason. Every combination no row names runs.
var modeTable = []struct {
	a, b, reason string
	err          error
}{
	{"Float32", "Compress", "the float32 path needs a wire lossless for float32 values, and chain wire images are not float32-exact", ErrModeRefused},
	{"Fanout", "Fanout below 2", "a fanout is 0 (flat) or at least 2", ErrModeRefused},
	{"Fanout", "fixed-fleet engine", "the in-process tree collective is the population-scale path", ErrModeRefused},
	{"Async", "tree", "the async fold bypasses the barrier and runs on the flat collective only", ErrModeRefused},
	{"Async", "Population", "cohort rounds are barriers", ErrModeRefused},
	{"Async", "subset strategy", "subset submissions cannot fold into the shared weighted accumulator; async needs a full-vector strategy", ErrModeRefused},
	{"Async", "RunRound", "RunRound is the barrier driver; an async run goes through Run", ErrModeRefused},
	{"Async", "Restore", "no checkpoint carries an async run's event loop or buffered contributions", ErrAsyncResume},
	{"Async", "Checkpoint", "no checkpoint carries an async run's event loop or buffered contributions", ErrAsyncResume},
	{"Population", "AddClient", "the slots are the cohort, and membership churn is modeled by cohort sampling", ErrModeRefused},
	{"Population", "RemoveClient", "the slots are the cohort, and membership churn is modeled by cohort sampling", ErrModeRefused},
}

// CheckMode asks the mode table whether op may run under cfg's switches
// (Async, Population, Fanout, DType, Compress; the other fields are
// ignored). It returns nil or the first refusing row's error. op is
// "NewEngine", "NewCoordinator", "SetAsync", "RunRound", "AddClient",
// "RemoveClient", "Restore", "Checkpoint", or "" for the switches alone.
func CheckMode(cfg Config, op string) error { return checkMode(cfg, "", op) }

// checkMode is CheckMode with the run's strategy name ("" when unknown).
func checkMode(cfg Config, strategy, op string) error {
	i := strategyIndex(strategy)
	on := map[string]bool{
		op:                   op != "",
		"Float32":            cfg.DType == tensor.Float32,
		"Compress":           cfg.Compress != "",
		"Async":              cfg.Async.Enabled(),
		"Population":         cfg.Population > 0,
		"Fanout":             cfg.Fanout != 0,
		"Fanout below 2":     cfg.Fanout < 2,
		"tree":               cfg.Fanout >= 2,
		"fixed-fleet engine": op == "NewEngine" && cfg.Population == 0,
		"subset strategy":    strategy != "" && (i < 0 || !strategies[i].fullVector),
	}
	for _, row := range modeTable {
		if on[row.a] && on[row.b] {
			if strategy != "" {
				return fmt.Errorf("fl: %s×%s (%q): %s: %w", row.a, row.b, strategy, row.reason, row.err)
			}
			return fmt.Errorf("fl: %s×%s: %s: %w", row.a, row.b, row.reason, row.err)
		}
	}
	return nil
}
