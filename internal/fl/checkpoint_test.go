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
	"fedsu/internal/sparse"
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
	return resumeEngineThrough(strategy, mut, nil)
}

// resumeEngineThrough is resumeEngine with every client's syncer wrapped by
// wrap, when it is not nil.
func resumeEngineThrough(strategy string, mut func(*Config), wrap func(sparse.Syncer) sparse.Syncer) (*Engine, error) {
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
	if wrap != nil {
		inner := factory
		factory = func(id, size int, agg sparse.Aggregator) sparse.Syncer { return wrap(inner(id, size, agg)) }
	}
	builder := func() *nn.Model {
		return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 4, Seed: 5}, 16)
	}
	return NewEngine(cfg, builder, resumeData(), factory)
}

// TestResumeAtEveryRound is the mode matrix: strategy × {default wire,
// topk,q4,rans, lowrank, rans} (the compose grid's wires but topk,q4, whose
// values topk,q4,rans repeats) × {fixed fleet, population flat, population
// fanout 8} × {the paper's SGD with weight decay, SGD without it}. A cell
// either builds or is refused by the mode table (ErrModeRefused), and no
// other failure passes. A cell that builds must resume
// exactly: for every round r, a checkpoint taken before round r, written, read
// back and restored into a freshly built engine finishes the run (Engine.Run to
// the same horizon) with every RoundStats and the final global bit-equal to the
// run that never stopped. A cell without weight decay must run differently
// from its twin with it, so the decay term is not silently dropped in any
// mode. Every round of the straight run has a participant:
// the quorum floor is one, so no in-tree run aggregates an empty round. A
// population cell refuses AddClient and RemoveClient.
func TestResumeAtEveryRound(t *testing.T) {
	const rounds, evalEvery = 7, 2
	type cell struct {
		name, strategy string
		mut            func(*Config)
		// twin names the same cell with weight decay, whose straight run
		// this cell's must differ from.
		twin string
	}
	var cells []cell
	for _, s := range StrategyNames() {
		for _, topo := range []string{"fixed", "pop-flat", "pop-tree"} {
			for _, spec := range []string{"", "topk,q4,rans", "lowrank", "rans"} {
				for _, local := range []string{"sgd", "no-decay"} {
					topo, spec, local := topo, spec, local
					name := fmt.Sprintf("%s/%s/%q/", s, topo, spec)
					twin := ""
					if local != "sgd" {
						twin = name + "sgd"
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
							c.WeightDecay = 0
						}
					}, twin})
				}
			}
		}
	}
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
				if st.Participants < 1 {
					t.Fatalf("round %d aggregated %d participants", k, st.Participants)
				}
				straight = append(straight, fmt.Sprintf("%+v", st))
				speculated = speculated || st.PredictableFraction > 0
			}
			if strings.HasPrefix(c.strategy, "fedsu") && !speculated {
				t.Fatal("vacuous run: nothing ever speculated")
			}
			runs[c.name] = strings.Join(straight, "\n")
			if prev, ok := runs[c.twin]; ok && prev == runs[c.name] {
				t.Fatal("vacuous run: weight decay changed no round")
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
		if ran != 168 || refused != 0 {
			t.Errorf("%d cells ran and %d were refused, want 168 and 0", ran, refused)
		}
	}
}

// passThrough is syncer middleware that adds nothing: it forwards Sync, the
// context, the wire and Unwrap, as bench's span recorder does.
type passThrough struct{ inner sparse.Syncer }

var (
	_ sparse.ContextSyncer = passThrough{}
	_ sparse.Unwrapper     = passThrough{}
	_ sparse.WireSetter    = passThrough{}
)

func (p passThrough) Name() string          { return p.inner.Name() }
func (p passThrough) Unwrap() sparse.Syncer { return p.inner }
func (p passThrough) SetWire(w sparse.Wire) { sparse.SetSyncerWire(p.inner, w) }

func (p passThrough) Sync(round int, local []float64, contributor bool) ([]float64, sparse.Traffic, error) {
	return p.SyncCtx(context.Background(), round, local, contributor)
}

func (p passThrough) SyncCtx(ctx context.Context, round int, local []float64, contributor bool) ([]float64, sparse.Traffic, error) {
	return sparse.SyncContext(ctx, p.inner, round, local, contributor)
}

// TestSyncMiddlewareIsTransparent: under every strategy, a run whose
// syncers sit behind passThrough computes what the bare run computes. The
// engine still finds the strategy underneath (PredictableFraction), the wire
// chain still reaches it, and the state seam walks through it: every
// RoundStats, every checkpoint and the final global are bit-equal to the bare
// run's, and the bare run's checkpoint resumes behind the middleware to the
// same final global.
func TestSyncMiddlewareIsTransparent(t *testing.T) {
	const rounds = 4
	mut := func(c *Config) { c.Compress = "topk,q4,rans" }
	wrap := func(s sparse.Syncer) sparse.Syncer { return passThrough{s} }
	checkpoint := func(t *testing.T, e *Engine) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := ckpt.Write(&buf, e.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, s := range StrategyNames() {
		s := s
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			bare, err := resumeEngine(s, mut)
			if err != nil {
				t.Fatal(err)
			}
			wrapped, err := resumeEngineThrough(s, mut, wrap)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := wrapped.Clients()[0].Syncer().(passThrough); !ok {
				t.Fatalf("client syncs through %T, not the middleware", wrapped.Clients()[0].Syncer())
			}
			ctx := context.Background()
			var mid []byte
			for k := 0; k < rounds; k++ {
				b, w := checkpoint(t, bare), checkpoint(t, wrapped)
				if !bytes.Equal(b, w) {
					t.Fatalf("checkpoint before round %d differs behind the middleware", k)
				}
				if k == rounds/2 {
					mid = b
				}
				sb, err := bare.RunRound(ctx, true)
				if err != nil {
					t.Fatal(err)
				}
				sw, err := wrapped.RunRound(ctx, true)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := fmt.Sprintf("%+v", sw), fmt.Sprintf("%+v", sb); got != want {
					t.Fatalf("round %d behind the middleware:\n got %s\nwant %s", k, got, want)
				}
			}
			want := bare.GlobalVector()
			for i, v := range wrapped.GlobalVector() {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("final global differs behind the middleware at parameter %d", i)
				}
			}
			ck, err := ckpt.Read(bytes.NewReader(mid))
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := resumeEngineThrough(s, mut, wrap)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Restore(ck); err != nil {
				t.Fatalf("bare checkpoint behind the middleware: %v", err)
			}
			if _, err := fresh.Run(ctx, rounds, 1); err != nil {
				t.Fatal(err)
			}
			for i, v := range fresh.GlobalVector() {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("resumed behind the middleware: final global differs at parameter %d", i)
				}
			}
		})
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
		{"local slice length", e, e, func(c *ckpt.Checkpoint) { c.Local[0] = shortFirstSlice(c.Local[0]) }},
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

// shortFirstSlice rewrites a state blob that leads with a slice (FedSU's
// local view leads with AccumErr) so that the slice is one element short
// but the blob still decodes to its end.
func shortFirstSlice(b []byte) []byte {
	n := binary.LittleEndian.Uint64(b)
	return append(binary.LittleEndian.AppendUint64(nil, n-1), b[16:]...)
}

// FuzzCheckpointRead: raw bytes through ckpt.Read into Engine.Restore on a
// two-client, 46-parameter FedSU engine over a lossy chain (every view, the
// lazy wire residual included; small, so seeds stay a few kilobytes and the
// mutator stays fast). Either an error comes back, or the
// engine restored exactly what the bytes said: its own checkpoint reads
// them back. Never a panic.
func FuzzCheckpointRead(f *testing.F) {
	ds := data.Synthesize(data.SynthConfig{Name: "fuzz", Channels: 1, Size: 4, Classes: 2, Samples: 32, Noise: 0.2, Seed: 1})
	cfg := Config{
		NumClients: 2, LocalIters: 1, BatchSize: 4, LR: 0.05, DirichletAlpha: 1.0, EvalSamples: 8, Seed: 3,
		Compress: "topk,q4,rans",
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
