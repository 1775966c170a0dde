package fl

import (
	"fmt"

	"fedsu/internal/core"
	"fedsu/internal/sparse"
)

// strategies is the strategy list, sorted by name: a baseline's factory or a
// FedSU variant.
var strategies = []struct {
	name     string
	baseline sparse.Factory
	variant  core.Variant
}{
	{"apf", sparse.APFFactory, 0},
	{"cmfl", sparse.CMFLFactory, 0},
	{"fedavg", sparse.FedAvgFactory, 0},
	{"fedsu", nil, core.VariantFull},
	{"fedsu-v1", nil, core.VariantV1},
	{"fedsu-v2", nil, core.VariantV2},
	{"qsgd", sparse.QSGDFactory, 0},
}

// StrategyFactory resolves a strategy name (one of StrategyNames) to its
// client-syncer factory.
func StrategyFactory(name string) (sparse.Factory, error) {
	return StrategyFactoryWith(name, core.DefaultOptions())
}

// StrategyFactoryWith is StrategyFactory with explicit FedSU options for
// the fedsu* strategies (ignored by the baselines).
func StrategyFactoryWith(name string, opts core.Options) (sparse.Factory, error) {
	switch i := strategyIndex(name); {
	case i < 0:
		return nil, fmt.Errorf("fl: unknown strategy %q (known: %v)", name, StrategyNames())
	case strategies[i].baseline != nil:
		return strategies[i].baseline, nil
	default:
		opts.Variant = strategies[i].variant
		return core.Factory(opts), nil
	}
}

// StrategyNames lists the recognized strategy names, sorted.
func StrategyNames() []string {
	names := make([]string, len(strategies))
	for i, s := range strategies {
		names[i] = s.name
	}
	return names
}

// strategyIndex is name's row in strategies, or -1.
func strategyIndex(name string) int {
	for i, s := range strategies {
		if s.name == name {
			return i
		}
	}
	return -1
}
