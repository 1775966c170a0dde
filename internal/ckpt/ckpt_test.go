package ckpt

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fedsu/internal/netem"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Workload: "cnn",
		Scheme:   "fedsu",
		Round:    6,
		SimTime:  12.5,
		Model:    []float64{5, 1, -2},
		Loads:    []netem.ClientLoad{{DownBytes: 10, UpBytes: 20, ComputeSeconds: 0.5}, {DownBytes: 11, UpBytes: 21}},
		Shared:   []byte{1, 2, 3},
		Local:    [][]byte{{4}, {5, 6}},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := sampleCheckpoint()
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Errorf("read back %+v, wrote %+v", got, c)
	}
}

// TestReadRejectsOtherVersions: a file of any other version — the
// single-manager version 1 included — is refused by an error naming both.
func TestReadRejectsOtherVersions(t *testing.T) {
	for _, v := range []int{1, 99} {
		c := sampleCheckpoint()
		c.Version = v
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c); err != nil { // Write would stamp FormatVersion
			t.Fatal(err)
		}
		_, err := Read(&buf)
		if err == nil || !strings.Contains(err.Error(), "version") || !strings.Contains(err.Error(), "2") {
			t.Errorf("version %d: got %v, want an error naming versions %d and 2", v, err, v)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	c := sampleCheckpoint()
	if err := Save(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, "cnn", "fedsu")
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != c.Round {
		t.Errorf("round = %d, want %d", got.Round, c.Round)
	}
	if _, err := Load(path, "resnet18", ""); err == nil {
		t.Error("workload mismatch must fail")
	}
	if _, err := Load(path, "", "fedavg"); err == nil {
		t.Error("scheme mismatch must fail")
	}
	if _, err := Load(filepath.Join(dir, "missing.ckpt"), "", ""); err == nil {
		t.Error("missing file must fail")
	}
}

func TestSaveAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := Save(path, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	b := sampleCheckpoint()
	b.Round = 42
	if err := Save(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 42 {
		t.Errorf("round = %d, want 42 after overwrite", got.Round)
	}
}
