package fl

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"fedsu/internal/ckpt"
	"fedsu/internal/core"
	"fedsu/internal/data"
	"fedsu/internal/nn"
)

var resumeData = sync.OnceValue(func() *data.Dataset {
	return data.Synthesize(data.SynthConfig{
		Name: "tiny", Channels: 1, Size: 8, Classes: 4,
		Samples: 256, Noise: 0.2, Jitter: 1, Seed: 11,
	})
})

// resumeEngine builds the small run the resume suite and FuzzCheckpointRead
// train: four clients of a 1.1k-parameter MLP, FedSU tuned to speculate
// within a few rounds, mut applied to the config last.
func resumeEngine(strategy string, mut func(*Config)) (*Engine, error) {
	cfg := Config{
		NumClients: 4, LocalIters: 3, BatchSize: 8, LR: 0.05, WeightDecay: 0.0005,
		DirichletAlpha: 1.0, EvalSamples: 32, EvalBatch: 32, Seed: 3,
	}
	if mut != nil {
		mut(&cfg)
	}
	opts := core.DefaultOptions()
	opts.TR, opts.FixedPeriod, opts.LaunchProb = 0.3, 3, 0.05
	factory, err := StrategyFactoryWith(strategy, opts)
	if err != nil {
		return nil, err
	}
	builder := func() *nn.Model {
		return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 4, Seed: 5}, 16)
	}
	return NewEngine(cfg, builder, resumeData(), factory)
}

// TestResumeAtEveryRound is the mode matrix: strategy × {default wire,
// topk,q4,rans, lowrank, rans} (the compose grid's wires but topk,q4, whose
// values topk,q4,rans repeats) × {fixed fleet, population flat, population
// fanout 8} × {plain SGD, FedProx under a decaying rate}, plus a FedSU cell under LRDecayWarm and
// an event trigger. A cell either builds or is refused by the mode table
// (ErrModeRefused), and no other failure passes. A cell that builds must resume
// exactly: for every round r, a checkpoint taken before round r, written, read
// back and restored into a freshly built engine finishes the run (Engine.Run to
// the same horizon) with every RoundStats and the final global bit-equal to the
// run that never stopped. A FedProx cell's run must differ from its plain
// twin's, so the local objective is not silently dropped in any mode. A
// population cell refuses AddClient and RemoveClient.
func TestResumeAtEveryRound(t *testing.T) {
	const rounds, evalEvery = 7, 2
	type cell struct {
		name, strategy string
		mut            func(*Config)
		// plain names the same cell under plain SGD, whose straight run
		// this cell's must differ from.
		plain string
	}
	var cells []cell
	for _, s := range StrategyNames() {
		for _, topo := range []string{"fixed", "pop-flat", "pop-tree"} {
			for _, spec := range []string{"", "topk,q4,rans", "lowrank", "rans"} {
				for _, local := range []string{"sgd", "prox+decay"} {
					topo, spec, local := topo, spec, local
					name := fmt.Sprintf("%s/%s/%q/", s, topo, spec)
					plain := ""
					if local != "sgd" {
						plain = name + "sgd"
					}
					cells = append(cells, cell{name + local, s, func(c *Config) {
						c.Compress = spec
						switch topo {
						case "pop-flat":
							c.NumClients, c.Population = 10, 40
						case "pop-tree":
							c.NumClients, c.Population, c.Fanout = 10, 40, 8
						}
						if local != "sgd" {
							c.ProxMu, c.LRDecayWarm = 0.1, 4
						}
					}, plain})
				}
			}
		}
	}
	cells = append(cells, cell{"fedsu/lr-decay+event", "fedsu", func(c *Config) { c.LRDecayWarm, c.EventThreshold = 4, 0.1 }, ""})
	runs := map[string]string{} // cell name → its straight run's stats

	ctx := context.Background()
	var ran, refused int
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			e, err := resumeEngine(c.strategy, c.mut)
			if errors.Is(err, ErrModeRefused) {
				refused++
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			ran++
			var cfg Config
			c.mut(&cfg)
			if cfg.Population > 0 {
				if _, err := e.AddClientFromDataset(8, 1); !errors.Is(err, ErrModeRefused) {
					t.Errorf("AddClient in population mode: got %v, want ErrModeRefused", err)
				}
				if err := e.RemoveClient(0); !errors.Is(err, ErrModeRefused) {
					t.Errorf("RemoveClient in population mode: got %v, want ErrModeRefused", err)
				}
			}
			var cks [][]byte
			var straight []string
			speculated := false
			for k := 0; ; k++ {
				var buf bytes.Buffer
				if err := ckpt.Write(&buf, e.Checkpoint()); err != nil {
					t.Fatal(err)
				}
				cks = append(cks, buf.Bytes())
				if k == rounds {
					break
				}
				st, err := e.RunRound(ctx, (k+1)%evalEvery == 0 || k == rounds-1)
				if err != nil {
					t.Fatal(err)
				}
				straight = append(straight, fmt.Sprintf("%+v", st))
				speculated = speculated || st.PredictableFraction > 0
			}
			if strings.HasPrefix(c.strategy, "fedsu") && !speculated {
				t.Fatal("vacuous run: nothing ever speculated")
			}
			runs[c.name] = strings.Join(straight, "\n")
			if prev, ok := runs[c.plain]; ok && prev == runs[c.name] {
				t.Fatal("vacuous run: the proximal term and the decaying rate changed no round")
			}
			want := e.GlobalVector()
			for r, b := range cks {
				ck, err := ckpt.Read(bytes.NewReader(b))
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := resumeEngine(c.strategy, c.mut)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.Restore(ck); err != nil {
					t.Fatalf("resume at round %d: %v", r, err)
				}
				stats, err := fresh.Run(ctx, rounds, evalEvery)
				if err != nil {
					t.Fatal(err)
				}
				if len(stats) != rounds-r {
					t.Fatalf("resumed at round %d: ran %d rounds, want %d", r, len(stats), rounds-r)
				}
				for i, st := range stats {
					if got := fmt.Sprintf("%+v", st); got != straight[r+i] {
						t.Fatalf("resumed at round %d, round %d:\n got %s\nwant %s", r, r+i, got, straight[r+i])
					}
				}
				for i, v := range fresh.GlobalVector() {
					if math.Float64bits(v) != math.Float64bits(want[i]) {
						t.Fatalf("resumed at round %d: final global differs at parameter %d", r, i)
					}
				}
			}
		})
	}
	if ran+refused == len(cells) {
		t.Logf("%d cells: %d ran, %d refused by the mode table", len(cells), ran, refused)
		if ran != 169 || refused != 0 {
			t.Errorf("%d cells ran and %d were refused, want 169 and 0", ran, refused)
		}
	}
}

func TestRestoreValidations(t *testing.T) {
	mk := func(strategy string, mut func(*Config)) *Engine {
		e, err := resumeEngine(strategy, mut)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(context.Background(), 2, 1); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := mk("fedsu", nil)
	trig := mk("fedsu", func(c *Config) { c.EventThreshold = 0.3 })
	fresh, err := resumeEngine("fedsu", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		from, into *Engine
		mutate     func(*ckpt.Checkpoint)
	}{
		{"scheme", e, mk("fedavg", nil), func(*ckpt.Checkpoint) {}},
		{"model size", e, e, func(c *ckpt.Checkpoint) { c.Model = c.Model[:10] }},
		{"client count", e, e, func(c *ckpt.Checkpoint) { c.Local = c.Local[1:] }},
		{"truncated shared state", e, e, func(c *ckpt.Checkpoint) { c.Shared = c.Shared[:len(c.Shared)-1] }},
		{"trailing local state", e, e, func(c *ckpt.Checkpoint) { c.Local[2] = append(c.Local[2], 0) }},
		{"corrupt last client", e, fresh, func(c *ckpt.Checkpoint) { c.Local[3] = c.Local[3][:len(c.Local[3])-1] }},
		{"event trigger state", e, trig, func(*ckpt.Checkpoint) {}},
		{"trigger reference length", trig, trig, func(c *ckpt.Checkpoint) { c.Local[0] = shortRef(c.Local[0]) }},
		{"NaN clock", e, e, func(c *ckpt.Checkpoint) { c.SimTime = math.NaN() }},
		{"negative clock", e, e, func(c *ckpt.Checkpoint) { c.SimTime = -1 }},
		{"infinite clock", e, e, func(c *ckpt.Checkpoint) { c.SimTime = math.Inf(1) }},
		{"negative load bytes", e, e, func(c *ckpt.Checkpoint) { c.Loads[1].UpBytes = -1 }},
		{"NaN load compute", e, e, func(c *ckpt.Checkpoint) { c.Loads[2].ComputeSeconds = math.NaN() }},
	} {
		before := encodeCheckpoint(t, tc.into.Checkpoint())
		ck := tc.from.Checkpoint()
		tc.mutate(ck)
		err := tc.into.Restore(ck)
		if err == nil {
			t.Errorf("%s: restore succeeded", tc.name)
		}
		if !bytes.Equal(encodeCheckpoint(t, tc.into.Checkpoint()), before) {
			t.Errorf("%s: a failed restore changed the engine", tc.name)
		}
	}

	// A version-1 file (one FedSU manager's fields for the whole fleet) is
	// refused before anything is restored, by an error naming both versions.
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(struct {
		Version          int
		Workload, Scheme string
		Round            int
		Model            []float64
	}{1, "cnn", "fedsu", 2, e.GlobalVector()}); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Read(&v1); err == nil || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Errorf("version-1 file: got %v, want an error naming versions 1 and 2", err)
	}
}

func encodeCheckpoint(t *testing.T, c *ckpt.Checkpoint) []byte {
	var buf bytes.Buffer
	if err := ckpt.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shortRef rewrites an event trigger's local blob, which leads with Ref, so
// that Ref is one element short but the blob still decodes to its end.
func shortRef(b []byte) []byte {
	n := binary.LittleEndian.Uint64(b)
	return append(binary.LittleEndian.AppendUint64(nil, n-1), b[16:]...)
}

// FuzzCheckpointRead: raw bytes through ckpt.Read into Engine.Restore on a
// two-client, 46-parameter FedSU engine behind an event trigger and a lossy
// chain (every view, the lazy residual included; small, so seeds stay a few
// kilobytes and the mutator stays fast). Either an error comes back, or the
// engine restored exactly what the bytes said: its own checkpoint reads
// them back. Never a panic.
func FuzzCheckpointRead(f *testing.F) {
	ds := data.Synthesize(data.SynthConfig{Name: "fuzz", Channels: 1, Size: 4, Classes: 2, Samples: 32, Noise: 0.2, Seed: 1})
	cfg := Config{
		NumClients: 2, LocalIters: 1, BatchSize: 4, LR: 0.05, DirichletAlpha: 1.0, EvalSamples: 8, Seed: 3,
		Compress: "topk,q4,rans", EventThreshold: 0.01,
	}
	opts := core.DefaultOptions()
	opts.TR = 0.3
	builder := func() *nn.Model {
		return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 4, NumClasses: 2, Seed: 5}, 2)
	}
	e, err := NewEngine(cfg, builder, ds, core.Factory(opts))
	if err != nil {
		f.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		var buf bytes.Buffer
		if err := ckpt.Write(&buf, e.Checkpoint()); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
		if _, err := e.RunRound(context.Background(), false); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ck, err := ckpt.Read(bytes.NewReader(b))
		if err != nil || e.Restore(ck) != nil {
			return
		}
		back := e.Checkpoint()
		same := back.Round == ck.Round && math.Float64bits(back.SimTime) == math.Float64bits(ck.SimTime) &&
			len(back.Model) == len(ck.Model) && len(back.Loads) == len(ck.Loads) &&
			bytes.Equal(back.Shared, ck.Shared) && len(back.Local) == len(ck.Local)
		for i := 0; same && i < len(ck.Model); i++ {
			same = math.Float64bits(back.Model[i]) == math.Float64bits(ck.Model[i])
		}
		for i := 0; same && i < len(ck.Loads); i++ {
			a, b := back.Loads[i], ck.Loads[i]
			same = a.DownBytes == b.DownBytes && a.UpBytes == b.UpBytes &&
				math.Float64bits(a.ComputeSeconds) == math.Float64bits(b.ComputeSeconds)
		}
		for i := 0; same && i < len(ck.Local); i++ {
			same = bytes.Equal(back.Local[i], ck.Local[i])
		}
		if !same {
			t.Fatal("restore succeeded, but the engine's checkpoint differs from the one it restored")
		}
	})
}
