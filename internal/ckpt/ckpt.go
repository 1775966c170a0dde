// Package ckpt persists a federated run so that it resumes exactly where it
// stopped: the global model, the round counter, the emulated clock and the
// last round's per-client loads (the timing model's next input), and the
// strategy state as the strategies encode it through the sparse.Stateful
// seam — the fleet-shared view once and each client's local view. Nothing
// else is stored because nothing else is read: batch draws, the learning
// rate, cohorts and timing jitter are recomputed from (seed, client,
// round). The on-disk format is gob with a versioned header.
package ckpt

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fedsu/internal/netem"
)

// FormatVersion identifies the checkpoint layout; bump on incompatible
// changes. Version 1 stored one FedSU manager's fields for the whole fleet;
// version 2 stores every strategy's state, per view and per client.
const FormatVersion = 2

// Checkpoint is the persisted training state.
type Checkpoint struct {
	// Version is the format version (FormatVersion at write time).
	Version int
	// Workload and Scheme document what produced the checkpoint; Load
	// verifies them when expectations are provided.
	Workload, Scheme string
	// Round is the next round index to run.
	Round int
	// SimTime is the emulated clock at the end of the last round.
	SimTime float64
	// Model is the flat global parameter vector.
	Model []float64
	// Loads are the last round's per-client payloads and compute, which
	// time the next round (nil before the first round).
	Loads []netem.ClientLoad
	// Shared is the strategy state every client holds identically
	// (sparse.Shared); Local[i] is client i's own (sparse.Local).
	Shared []byte
	Local  [][]byte
}

// Write serializes the checkpoint to w.
func Write(w io.Writer, c *Checkpoint) error {
	c.Version = FormatVersion
	if err := gob.NewEncoder(w).Encode(c); err != nil {
		return fmt.Errorf("ckpt: encode: %w", err)
	}
	return nil
}

// Read deserializes a checkpoint from r and validates the version.
func Read(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("ckpt: decode: %w", err)
	}
	if c.Version != FormatVersion {
		return nil, fmt.Errorf("ckpt: format version %d, want %d", c.Version, FormatVersion)
	}
	return &c, nil
}

// Save writes the checkpoint atomically: to a temp file in the same
// directory, then rename, so a crash mid-write never corrupts an existing
// checkpoint.
func Save(path string, c *Checkpoint) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, c); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: rename: %w", err)
	}
	return nil
}

// Load reads a checkpoint from disk. When wantWorkload or wantScheme are
// non-empty they are verified against the stored metadata.
func Load(path, wantWorkload, wantScheme string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	c, err := Read(f)
	if err != nil {
		return nil, err
	}
	if wantWorkload != "" && c.Workload != wantWorkload {
		return nil, fmt.Errorf("ckpt: checkpoint is for workload %q, want %q", c.Workload, wantWorkload)
	}
	if wantScheme != "" && c.Scheme != wantScheme {
		return nil, fmt.Errorf("ckpt: checkpoint is for scheme %q, want %q", c.Scheme, wantScheme)
	}
	return c, nil
}
