package main

import (
	"testing"

	"fedsu/internal/exp"
)

// TestOptimizerTrainsAtTheEngineRate: a TCP client builds its stand-in model
// at the workload's emulation scale, so it must also train at the emulation
// learning rate the in-process engine uses — not the paper's real-corpus
// rate (resnet18: 0.02, not 0.001).
func TestOptimizerTrainsAtTheEngineRate(t *testing.T) {
	for _, w := range exp.AllWorkloads() {
		if got, want := newOptimizer(w).LR(), w.EffectiveLR(); got != want {
			t.Errorf("%s: client trains at %v, the engine at %v", w.Name, got, want)
		}
	}
	if got := newOptimizer(exp.ResNetWorkload()).LR(); got != 0.02 {
		t.Errorf("resnet18: client trains at %v, want 0.02", got)
	}
}
