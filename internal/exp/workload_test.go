package exp

import (
	"strings"
	"testing"
)

func TestEffectiveLR(t *testing.T) {
	w := ResNetWorkload()
	if w.EffectiveLR() != 0.02 {
		t.Errorf("resnet emulation LR = %v, want 0.02", w.EffectiveLR())
	}
	w.EmuLR = 0
	if w.EffectiveLR() != 0.001 {
		t.Errorf("fallback LR = %v, want the paper's 0.001", w.EffectiveLR())
	}
}

func TestEffectiveScale(t *testing.T) {
	w := CNNWorkload()
	if got := w.EffectiveScale(0); got != 8 {
		t.Errorf("default scale = %d, want EmuScale 8", got)
	}
	if got := w.EffectiveScale(32); got != 32 {
		t.Errorf("override scale = %d, want 32", got)
	}
	w.EmuScale = 0
	if got := w.EffectiveScale(0); got != 1 {
		t.Errorf("no-default scale = %d, want paper scale 1", got)
	}
}

func TestPaperLRsPreserved(t *testing.T) {
	// The paper's learning rates stay on record even though emulation
	// recalibrates.
	lrs := map[string]float64{"cnn": 0.01, "resnet18": 0.001, "densenet121": 0.01}
	for _, w := range Workloads() {
		if w.LR != lrs[w.Name] {
			t.Errorf("%s: paper LR = %v, want %v", w.Name, w.LR, lrs[w.Name])
		}
	}
}

func TestTargetAccuraciesMatchPaper(t *testing.T) {
	targets := map[string]float64{"cnn": 0.60, "resnet18": 0.85, "densenet121": 0.65}
	for _, w := range Workloads() {
		if w.TargetAccuracy != targets[w.Name] {
			t.Errorf("%s: target = %v, want %v", w.Name, w.TargetAccuracy, targets[w.Name])
		}
	}
}

// TestWorkloadByName: each of the paper's three workloads is found under its
// own name, and any other name is refused with the list of those three.
func TestWorkloadByName(t *testing.T) {
	for _, want := range Workloads() {
		t.Run(want.Name, func(t *testing.T) {
			got, err := WorkloadByName(want.Name)
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != want.Name || got.DataKey() != want.DataKey() || got.WireParams != want.WireParams {
				t.Errorf("got %s (%d params on %s), want %s (%d params on %s)", got.Name, got.WireParams, got.DataKey(), want.Name, want.WireParams, want.DataKey())
			}
		})
	}
	for _, name := range []string{"lstm", "CNN", ""} {
		t.Run("refuse/"+name, func(t *testing.T) {
			_, err := WorkloadByName(name)
			if err == nil || !strings.HasSuffix(err.Error(), "(have cnn, densenet121, resnet18)") {
				t.Errorf("got %v, want an error listing cnn, densenet121, resnet18", err)
			}
		})
	}
}
