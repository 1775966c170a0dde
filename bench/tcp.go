package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"fedsu/internal/core"
	"fedsu/internal/fl"
	"fedsu/internal/flrpc"
	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
)

// tcpParams sizes one TCP workload. compress "" is dense FedAvg on the
// default wire; a chain spec runs core.Manager with that chain on both ends.
type tcpParams struct {
	n, clients     int
	warmup, window int
	replay         int // timed rounds the in-process replay checks bit-for-bit
	compress       string
	// guard checks that FedSU's predictable fraction at the end of the count
	// window lies in [0.4, 0.8], so the workload cannot silently degenerate
	// to dense or to all-speculative. Off at toy scale, which never converges.
	guard bool
}

// captureRounds are the early, middle and late rounds of the count window
// whose payloads a traced run keeps for the replay probes.
func captureRounds(warmup, window int) map[int]bool {
	return map[int]bool{warmup + 1: true, warmup + window/2: true, warmup + window - 1: true}
}

// fleet is K strategy instances driven in lock step from generated inputs:
// either over loopback TCP against a coordinator, or (the replay) in-process
// against fl.Server. Local training is replaced by the trajectory generator,
// which runs outside the timer.
type fleet struct {
	p       tcpParams
	traj    *trajectory
	syncers []sparse.Syncer
	chain   *codec.Chain // the fleet's own chain, for accounting and stage counters
	global  []float64
	locals  [][]float64
	outs    [][]float64
	begin   func(round int) // in-process only: opens the round on the server
	rec     *recorder       // traced fleets only

	wallsMS   []float64
	fps       []uint64 // fingerprint of the global after each of the first p.replay rounds
	traffic   sparse.Traffic
	ratio     float64
	pred      float64
	attempted int
	failed    int
}

// newFleet builds the strategies over the aggregators aggFor hands out; chain
// is the fleet's parsed chain, nil on the default wire.
func newFleet(p tcpParams, seed int64, aggFor func(id int, chain *codec.Chain) sparse.Aggregator) (*fleet, error) {
	f := &fleet{p: p, traj: newTrajectory(seed), global: make([]float64, p.n)}
	if p.compress != "" {
		chain, err := codec.Parse(p.compress, seed)
		if err != nil {
			return nil, err
		}
		f.chain = chain
	}
	for id := 0; id < p.clients; id++ {
		var s sparse.Syncer
		if f.chain == nil {
			s = sparse.NewFedAvg(id, p.n, aggFor(id, nil))
		} else {
			mgr, err := core.NewManager(id, p.n, aggFor(id, f.chain), core.DefaultOptions())
			if err != nil {
				return nil, err
			}
			// Every manager accounts with (and probes the image of) the same
			// chain the transport encodes with, as fedsu-client does.
			mgr.SetWire(sparse.Wire{Chain: f.chain})
			s = mgr
		}
		f.syncers = append(f.syncers, s)
		f.locals = append(f.locals, make([]float64, p.n))
	}
	f.outs = make([][]float64, p.clients)
	return f, nil
}

// step runs absolute round r: generate every client's vector from the
// previous global (untimed), then time all K Sync calls to their return.
func (f *fleet) step(ctx context.Context, r int) (time.Duration, error) {
	for c, l := range f.locals {
		f.traj.local(l, f.global, r, c)
	}
	if f.begin != nil {
		f.begin(r)
	}
	errs := make([]error, f.p.clients)
	trs := make([]sparse.Traffic, f.p.clients)
	var wg sync.WaitGroup
	var span int32
	if f.rec != nil {
		span = f.rec.begin(driverLane, spanRound, r)
	}
	t0 := time.Now()
	for c := range f.syncers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.outs[c], trs[c], errs[c] = sparse.SyncContext(ctx, f.syncers[c], r, f.locals[c], true)
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	if f.rec != nil {
		f.rec.end(driverLane, span)
	}
	f.attempted += f.p.clients
	for _, err := range errs {
		if err != nil {
			f.failed++
		}
	}
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	// A strategy may own the vector it returned until its next Sync; the
	// generator reads it before then.
	f.global = f.outs[0]
	if t := r - f.p.warmup; t >= 0 {
		f.wallsMS = append(f.wallsMS, float64(d)/1e6)
		if t < f.p.replay {
			f.fps = append(f.fps, fingerprint(f.global))
		}
		if t < f.p.window {
			for _, tr := range trs {
				f.traffic.Add(tr)
				f.ratio += tr.SparsificationRatio()
			}
			if mgr, ok := sparse.UnwrapSyncer(f.syncers[0]).(*core.Manager); ok {
				f.pred = float64(mgr.PredictableCount()) / float64(f.p.n)
			}
		}
	}
	return d, nil
}

// identical reports whether every client ended the last round on the same
// bits.
func (f *fleet) identical() bool {
	for _, o := range f.outs[1:] {
		if !sameBits(o, f.outs[0]) {
			return false
		}
	}
	return true
}

// quantAgg gives an in-process aggregator the default wire's image: what a
// receiver sees after sparse's float32 vector codec, on both legs. Under a
// chain sparse.WrapAggregator does the same job.
type quantAgg struct{ inner sparse.Aggregator }

func quantize(v []float64) []float64 {
	if v == nil {
		return nil
	}
	q := make([]float64, len(v))
	for i, x := range v {
		q[i] = sparse.QuantizeWire(x)
	}
	return q
}

func (a quantAgg) AggregateModel(id, round int, v []float64) ([]float64, error) {
	res, err := a.inner.AggregateModel(id, round, quantize(v))
	return quantize(res), err
}

func (a quantAgg) AggregateError(id, round int, v []float64) ([]float64, error) {
	res, err := a.inner.AggregateError(id, round, quantize(v))
	return quantize(res), err
}

// replay runs the same seed's first warm-up+replay rounds through fl.Server
// in-process: the bit-identity reference for the TCP run and, timed, the
// round with the transport taken out.
func replay(ctx context.Context, p tcpParams, seed int64) (*fleet, error) {
	srv := fl.NewServer(p.clients)
	ids := make([]int, p.clients)
	for i := range ids {
		ids[i] = i
	}
	f, err := newFleet(p, seed, func(_ int, chain *codec.Chain) sparse.Aggregator {
		if chain == nil {
			return quantAgg{srv}
		}
		return sparse.WrapAggregator(srv, chain)
	})
	if err != nil {
		return nil, err
	}
	f.begin = func(r int) { srv.BeginRound(r, ids) }
	for r := 0; r < p.warmup+p.replay; r++ {
		if _, err := f.step(ctx, r); err != nil {
			return nil, fmt.Errorf("in-process replay round %d: %w", r, err)
		}
	}
	return f, nil
}

// tcpFleet is a fleet over loopback TCP.
type tcpFleet struct {
	*fleet
	seed   int64
	coord  *flrpc.Coordinator
	ln     *countingListener
	served chan struct{} // closed when the coordinator's accept loop has returned
	conns  []*flrpc.Client
	aggs   []*tracedAgg
	joinMS float64

	fp                          uint64
	sock0, rx0, tx0             int64 // counters when the count window opened
	sockBytes, rxBytes, txBytes int64 // and their growth over it
}

func setupTCPDense(ctx context.Context, seed int64, sc scale, rec func(int) *recorder) (instance, error) {
	return setupTCP(ctx, sc.dense, seed, rec)
}

func setupTCPChain(ctx context.Context, seed int64, sc scale, rec func(int) *recorder) (instance, error) {
	return setupTCP(ctx, sc.chain, seed, rec)
}

func setupTCP(ctx context.Context, p tcpParams, seed int64, rec func(int) *recorder) (_ instance, err error) {
	t := &tcpFleet{seed: seed, served: make(chan struct{})}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	// Heartbeats stay off (DialConfig.Heartbeat zero) so socket bytes are exact.
	t.coord, err = flrpc.NewCoordinatorWith(flrpc.Config{NumClients: p.clients, ModelSize: p.n, Compress: p.compress, CompressSeed: seed})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.ln = &countingListener{Listener: l}
	go func() {
		// Serve returns when close() closes the listener; were it to stop
		// earlier, the next round's calls fail and the run with them.
		_ = flrpc.Serve(t.ln, t.coord)
		close(t.served)
	}()

	t0 := time.Now()
	t.conns = make([]*flrpc.Client, p.clients)
	for i := 0; i < p.clients; i++ {
		c, err := flrpc.DialWith(l.Addr().String(), flrpc.DialConfig{Name: fmt.Sprintf("bench-%d", i), Compress: p.compress, CompressSeed: seed})
		if err != nil {
			return nil, err
		}
		t.conns[c.ClientID()] = c
	}
	t.joinMS = float64(time.Since(t0)) / 1e6

	var spans *recorder
	if rec != nil {
		spans = rec(p.clients)
	}
	t.fleet, err = newFleet(p, seed, func(id int, _ *codec.Chain) sparse.Aggregator {
		if spans == nil {
			return t.conns[id]
		}
		a := &tracedAgg{inner: t.conns[id], rec: spans, lane: 1 + id, captureAt: captureRounds(p.warmup, p.window)}
		t.aggs = append(t.aggs, a)
		return a
	})
	if err != nil {
		return nil, err
	}
	if t.rec = spans; spans != nil {
		for id, s := range t.syncers {
			t.syncers[id] = &tracedSyncer{inner: s, rec: spans, lane: 1 + id}
		}
	}
	for r := 0; r < p.warmup; r++ {
		if _, err := t.step(ctx, r); err != nil {
			return nil, fmt.Errorf("warm-up round %d: %w", r, err)
		}
	}
	return t, nil
}

func (t *tcpFleet) window() int         { return t.p.window }
func (t *tcpFleet) done() bool          { return true }
func (t *tcpFleet) fingerprint() uint64 { return t.fp }

func (t *tcpFleet) counters() (sock, rx, tx int64) {
	c := t.coord.Counters()
	return t.ln.total(), c.Get("agg_rx_bytes"), c.Get("agg_tx_bytes")
}

func (t *tcpFleet) round(ctx context.Context, r int) (time.Duration, error) {
	if r == 0 {
		t.sock0, t.rx0, t.tx0 = t.counters()
	}
	return t.step(ctx, t.p.warmup+r)
}

func (t *tcpFleet) after(r int) error {
	if r+1 == t.p.window {
		t.fp = fingerprint(t.global)
		sock, rx, tx := t.counters()
		t.sockBytes, t.rxBytes, t.txBytes = sock-t.sock0, rx-t.rx0, tx-t.tx0
	}
	return nil
}

func (t *tcpFleet) clientCounter(name string) int {
	n := 0
	for _, c := range t.conns {
		n += int(c.Counters().Get(name))
	}
	return n
}

func (t *tcpFleet) ops() (int, int) {
	return t.attempted, t.failed + t.coord.EvictionCount() + t.clientCounter("retries") + t.clientCounter("reconnects")
}

func (t *tcpFleet) finish(ctx context.Context, m map[string]float64) []string {
	var bad []string
	if !t.identical() {
		bad = append(bad, "clients hold different vectors after the last round")
	}
	ref, err := replay(ctx, t.p, t.seed)
	if err != nil {
		return append(bad, err.Error())
	}
	for i, fp := range ref.fps {
		if fp != t.fps[i] {
			bad = append(bad, fmt.Sprintf("round %d: TCP global %016x differs from the in-process replay %016x", i, t.fps[i], fp))
			break
		}
	}
	w, k := float64(t.p.window), float64(t.p.clients)
	attempted, failed := t.ops()
	m["wire_bytes_per_round"] = float64(t.traffic.UpBytes+t.traffic.DownBytes) / w
	m["core.synced_params_per_round"] = float64(t.traffic.SyncedParams) / w / k
	m["core.checked_params_per_round"] = float64(t.traffic.CheckedParams) / w / k
	m["fl.evictions"] = float64(t.coord.EvictionCount())
	m["fl.failed_ops_ratio"] = float64(failed) / float64(attempted)
	m["flrpc.retries"] = float64(t.clientCounter("retries"))
	m["flrpc.reconnects"] = float64(t.clientCounter("reconnects"))
	m["flrpc.setup_join_ms"] = t.joinMS
	m["flrpc.socket_bytes_per_round"] = float64(t.sockBytes) / w
	m["flrpc.agg_rx_bytes_per_round"] = float64(t.rxBytes) / w
	m["flrpc.agg_tx_bytes_per_round"] = float64(t.txBytes) / w
	m["flrpc.envelope_overhead_ratio"] = float64(t.sockBytes)/float64(t.rxBytes+t.txBytes) - 1
	if t.chain != nil {
		m["core.sparsification_ratio"] = t.ratio / w / k
		m["core.predictable_fraction_final"] = t.pred
		// The workload must keep exercising both of FedSU's modes: neither
		// all-regular (dense) nor all-speculative (nothing on the wire).
		if t.p.guard && (t.pred < 0.4 || t.pred > 0.8) {
			bad = append(bad, fmt.Sprintf("predictable fraction %.3f at the end of the count window is outside [0.4, 0.8]", t.pred))
		}
		for _, sb := range ref.chain.Counters() {
			if sb.InBytes > 0 {
				m["codec.stage."+sb.Stage+".ratio"] = float64(sb.OutBytes) / float64(sb.InBytes)
			}
		}
	}
	if t.rec == nil {
		return bad
	}

	st := analyze(t.rec, t.p.warmup)
	st.shares(m)
	rounds := float64(len(t.wallsMS))
	timed(m, "fl.client_train_ms_p50", st.trainMS)
	timed(m, "fl.barrier_skew_ms_p50", st.skewMS)
	timed(m, "flrpc.call_ms_p50", st.collMS)
	timed(m, "flrpc.call_model_ms_p50", st.collModelMS)
	timed(m, "flrpc.call_error_ms_p50", st.collErrorMS)
	m["core.collectives_per_round"] = float64(len(st.collMS)) / rounds / k
	if t.chain != nil {
		timed(m, "core.sync_self_ms_p50", st.syncSelfMS)
		m["core.error_rounds_share"] = float64(len(st.collErrorMS)) / rounds / k
	} else {
		timed(m, "sparse.sync_self_ms_p50", st.syncSelfMS)
	}
	timed(m, "fl.inproc_round_ms_p50", ref.wallsMS)
	m["flrpc.tcp_over_inproc_ratio"] = median(t.wallsMS[:len(ref.wallsMS)]) / median(ref.wallsMS)

	var enc, dec float64 // the client's share of a call, under the wire it used
	if t.chain != nil {
		probeChain(m, t.aggs, t.chain)
		enc, dec = m["codec.encode_ms_p50"], m["codec.reply_decode_ms_p50"]
	}
	probeWire(m, t.aggs)
	if t.chain == nil {
		enc, dec = m["sparse.wire_encode_ms_p50"], m["sparse.wire_decode_ms_p50"]
	}
	if err := probeHandler(m, t.p, t.seed, t.aggs); err != nil {
		bad = append(bad, err.Error())
	}
	m["flrpc.transport_ms_p50"] = m["flrpc.call_ms_p50"] - m["flrpc.handler_ms_p50"] - enc - dec
	return bad
}

func (t *tcpFleet) close() {
	for _, c := range t.conns {
		if c != nil {
			c.Close()
		}
	}
	if t.ln != nil {
		t.ln.Close()
		<-t.served
	}
}
