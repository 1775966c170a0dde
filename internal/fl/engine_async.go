package fl

import (
	"context"
	"fmt"

	"fedsu/internal/netem"
	"fedsu/internal/par"
	"fedsu/internal/sparse"
)

// runAsync is the buffered-async round driver: a discrete-event loop over
// per-client arrival processes (netem.AsyncProcess) replacing the
// synchronous quorum barrier. Each client cycles independently — pull the
// global, train locally, upload — and the server (in SetAsync mode) folds
// arrivals as they land, applying a new staleness-weighted global every
// Async.K contributions. `applies` counts global applications, the async
// analogue of rounds; one RoundStats is emitted per apply, aggregating the
// arrival window that produced it.
//
// Determinism contract (DESIGN.md §5i): the schedule is a pure function of
// the netem seed. Arrivals are processed strictly one at a time in
// simulated-time order (ties broken by client index); each client's jitter
// and dropout draws come from a private per-client RNG stream indexed by
// its own cycle count; and local training — though it overlaps real-time
// with the event loop via the par token pool — depends only on the
// client's own state and RNG. The fold itself is element-sharded
// (bit-identical at any worker count), so the same seed yields a
// bit-identical global trajectory across par.SetWorkers settings.
func (e *Engine) runAsync(ctx context.Context, applies, evalEvery int) ([]RoundStats, error) {
	n := len(e.clients)
	if n == 0 {
		return nil, fmt.Errorf("fl: async run with no clients")
	}
	proc := e.cluster.AsyncProcess()

	scale := float64(e.wireParams()) / float64(e.evalModel.Size())
	computeSec := netem.DefaultComputeModel().RoundCompute(e.wireParams(), e.cfg.LocalIters)
	full := int(float64(e.wire().DenseBytes(e.evalModel.Size())) * scale)
	loads := make([]netem.ClientLoad, n)
	for i := range loads {
		// First cycle: full dense exchange, like the sync driver's first
		// round; subsequent cycles use the client's actual encoded bytes.
		loads[i] = netem.ClientLoad{DownBytes: full, UpBytes: full, ComputeSeconds: computeSec}
	}

	// Local training runs ahead of the event loop: each client's cycle-k
	// training is launched when its cycle starts and harvested when its
	// arrival is processed. The par token pool bounds concurrent SGD
	// exactly as in the sync driver; synchronization (the server fold) is
	// NOT concurrent — the event loop serializes it in arrival order,
	// which is what the determinism contract requires.
	futures := make([]chan float64, n)
	launch := func(i int) {
		ch := make(chan float64, 1)
		futures[i] = ch
		go func() {
			par.AcquireToken()
			loss := e.clients[i].TrainLocal(e.cfg.LocalIters, e.cfg.BatchSize)
			par.ReleaseToken()
			ch <- loss
		}()
	}
	drain := func() {
		for _, ch := range futures {
			if ch != nil {
				<-ch
			}
		}
	}

	nextT := make([]float64, n)
	cycle := make([]int, n)
	for i := 0; i < n; i++ {
		launch(i)
		nextT[i] = e.simTime + proc.CycleTime(i, loads[i])
	}

	var out []RoundStats
	lastVer := e.server.AsyncVersion()
	targetVer := lastVer + applies
	lastDrops := e.server.StaleDropCount()
	lastApplyT := e.simTime

	// Per-apply window accumulators: everything that arrived since the
	// previous global application.
	var winTraffic sparse.Traffic
	winLoss, winRatio := 0.0, 0.0
	winSyncs := 0

	// Arrival budget against a starved configuration (event threshold so
	// high nobody ever contributes, or dropout eating every arrival):
	// generous headroom over the applies*K contributions actually needed.
	maxEvents := (applies*e.cfg.Async.K + n) * 64

	for events := 0; e.server.AsyncVersion() < targetVer; events++ {
		if err := ctx.Err(); err != nil {
			drain()
			return out, err
		}
		if events >= maxEvents {
			drain()
			return out, fmt.Errorf("fl: async run stalled after %d arrivals with %d/%d applies (event threshold too high or dropout too aggressive?)",
				events, len(out), applies)
		}

		// Earliest arrival; ties break to the lowest client index.
		i := 0
		for j := 1; j < n; j++ {
			if nextT[j] < nextT[i] {
				i = j
			}
		}
		now := nextT[i]
		loss := <-futures[i]
		futures[i] = nil
		e.simTime = now

		if !proc.Dropped(i) {
			tr, err := e.clients[i].SyncRoundCtx(ctx, cycle[i], true)
			if err != nil {
				drain()
				return out, fmt.Errorf("fl: async arrival (client %d, cycle %d): %w", e.clients[i].ID, cycle[i], err)
			}
			winTraffic.Add(tr)
			winLoss += loss
			winRatio += tr.SparsificationRatio()
			winSyncs++
			loads[i] = netem.ClientLoad{
				DownBytes:      int(float64(tr.DownBytes) * scale),
				UpBytes:        int(float64(tr.UpBytes) * scale),
				ComputeSeconds: computeSec,
			}
		}
		cycle[i]++

		if ver := e.server.AsyncVersion(); ver > lastVer {
			drops := e.server.StaleDropCount()
			st := RoundStats{
				Round:        ver - 1,
				Duration:     now - lastApplyT,
				SimTime:      now,
				Traffic:      winTraffic,
				Participants: e.cfg.Async.K,
				StaleDrops:   drops - lastDrops,
			}
			if winSyncs > 0 {
				st.TrainLoss = winLoss / float64(winSyncs)
				st.SparsificationRatio = winRatio / float64(winSyncs)
			}
			if ver%evalEvery == 0 || ver == targetVer {
				st.Accuracy, st.Loss = e.evaluateVector(e.server.AsyncGlobal())
			} else {
				st.Accuracy, st.Loss = -1, -1
			}
			out = append(out, st)
			lastVer, lastDrops, lastApplyT = ver, drops, now
			winTraffic = sparse.Traffic{}
			winLoss, winRatio, winSyncs = 0, 0, 0
		}

		launch(i)
		nextT[i] = now + proc.CycleTime(i, loads[i])
	}
	drain()
	e.round = lastVer
	return out, nil
}

// AsyncGlobal returns the server's current async global model (nil before
// the first application, or in synchronous mode). The slice is immutable
// by the apply contract.
func (e *Engine) AsyncGlobal() []float64 { return e.server.AsyncGlobal() }

// Server exposes the engine's collective, flat or tree (read-mostly
// accessors: eviction counters, tier stats, async version).
func (e *Engine) Server() *Server { return e.server }
