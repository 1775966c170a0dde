package goleak_test

import (
	"testing"

	"fedsu/internal/analysis/analysistest"
	"fedsu/internal/analysis/goleak"
)

func TestGoleak(t *testing.T) {
	analysistest.Run(t, "testdata", goleak.Analyzer, "fedsu/internal/fl", "fedsu/internal/core")
}
