package main

import (
	"context"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"fedsu/internal/sparse"
)

// The traced run records spans from outside the program: around the calls the
// benchmark itself makes (round, cohort sampling, evaluation) and, by wrapping
// the public interfaces, around the calls the program makes back through them
// (a strategy's Sync, each collective). Spans stay in memory until the run ends.

type spanKind uint8

const (
	spanRound  spanKind = iota // one closed-loop round, recorded by the driver
	spanSample                 // Population.SampleCohort
	spanEval                   // Engine.EvaluateGlobal
	spanSync                   // sparse.Syncer wrapper
	spanModel                  // sparse.Aggregator wrapper, model collective
	spanError                  // sparse.Aggregator wrapper, error collective
)

// span is one timed interval. Spans of one round share Round; Parent is the
// index of the enclosing span in the same lane, or -1 for a lane's top-level
// spans, whose cause is the driver's round span of the same Round.
type span struct {
	Kind       spanKind
	Round      int32
	Parent     int32
	Start, End int64 // ns since the recorder's epoch
}

func (s span) dur() int64 { return s.End - s.Start }

// driverLane is the lane the benchmark's own goroutine records in.
const driverLane = 0

// recorder holds one lane of spans per recording goroutine (lane 0 is the
// driver, lane 1+i is client or member i), so recording takes no lock and no
// allocation beyond slice growth.
type recorder struct {
	epoch time.Time
	lanes [][]span
	open  []int32 // per lane: index of the innermost open span, -1 when none
}

func newRecorder(clients int) *recorder {
	r := &recorder{epoch: time.Now(), lanes: make([][]span, clients+1), open: make([]int32, clients+1)}
	for i := range r.open {
		r.open[i] = -1
		r.lanes[i] = make([]span, 0, 1024)
	}
	return r
}

// begin opens a span in lane, nested in whatever span the lane has open.
func (r *recorder) begin(lane int, kind spanKind, round int) int32 {
	id := int32(len(r.lanes[lane]))
	r.lanes[lane] = append(r.lanes[lane], span{Kind: kind, Round: int32(round), Parent: r.open[lane], Start: int64(time.Since(r.epoch))})
	r.open[lane] = id
	return id
}

// end closes the span begin returned.
func (r *recorder) end(lane int, id int32) {
	s := &r.lanes[lane][id]
	s.End = int64(time.Since(r.epoch))
	r.open[lane] = s.Parent
}

// selfTime is a span's duration minus the part of it that its children
// cover. Children may nest grandchildren (which are not passed here and do
// not count twice) and may overlap one another when they ran concurrently, so
// the covered part is the union of the children clipped to the parent.
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, edge := int64(0), parent.Start
	for _, x := range iv {
		if x[1] <= edge {
			continue
		}
		covered += x[1] - max(x[0], edge)
		edge = x[1]
	}
	return parent.dur() - covered
}

// childrenOf returns the direct children of lane[id]. A lane records spans in
// the order they began, so the children follow their parent directly and end
// where the first span that began after the parent ended is found.
func childrenOf(lane []span, id int32) []span {
	var out []span
	for _, s := range lane[id+1:] {
		if s.Start >= lane[id].End {
			break
		}
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// spanStats is what a traced run's spans reduce to. Only timed rounds count.
type spanStats struct {
	trainMS, syncSelfMS, collMS, collModelMS, collErrorMS []float64
	skewMS, evalMS, sampleMS                              []float64
	trainNS, syncSelfNS, collNS, evalNS                   int64
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// analyze walks every lane once. A client's time in a round splits into what
// came before its first span of the round (local training, or for cohort_tree
// the sampling and roster work that precedes the members), the strategy's own
// work (Sync minus the collectives it issued), and the collectives.
func analyze(rec *recorder, warmup int) *spanStats {
	st := &spanStats{}
	roundStart := map[int32]int64{}
	for _, s := range rec.lanes[driverLane] {
		if int(s.Round) < warmup {
			continue
		}
		switch s.Kind {
		case spanRound:
			roundStart[s.Round] = s.Start
		case spanEval:
			st.evalMS = append(st.evalMS, ms(s.dur()))
			st.evalNS += s.dur()
		case spanSample:
			st.sampleMS = append(st.sampleMS, ms(s.dur()))
		}
	}
	first, last := map[int32]int64{}, map[int32]int64{}
	for _, lane := range rec.lanes[1:] {
		for id, s := range lane {
			if int(s.Round) < warmup {
				continue
			}
			if t0, ok := roundStart[s.Round]; ok && s.Parent < 0 && s.Kind != spanError {
				st.trainMS = append(st.trainMS, ms(s.Start-t0))
				st.trainNS += s.Start - t0
			}
			switch s.Kind {
			case spanSync:
				self := selfTime(s, childrenOf(lane, int32(id)))
				st.syncSelfMS = append(st.syncSelfMS, ms(self))
				st.syncSelfNS += self
			case spanModel, spanError:
				st.collMS = append(st.collMS, ms(s.dur()))
				st.collNS += s.dur()
				if s.Kind == spanError {
					st.collErrorMS = append(st.collErrorMS, ms(s.dur()))
					continue
				}
				st.collModelMS = append(st.collModelMS, ms(s.dur()))
				if f, ok := first[s.Round]; !ok || s.Start < f {
					first[s.Round] = s.Start
				}
				last[s.Round] = max(last[s.Round], s.Start)
			}
		}
	}
	for r, f := range first {
		st.skewMS = append(st.skewMS, ms(last[r]-f))
	}
	return st
}

// shares writes each phase's share of the summed client time.
func (st *spanStats) shares(m map[string]float64) {
	total := float64(st.trainNS + st.syncSelfNS + st.collNS + st.evalNS)
	if total == 0 {
		return
	}
	m["fl.share_train"] = float64(st.trainNS) / total
	m["fl.share_sync_self"] = float64(st.syncSelfNS) / total
	m["fl.share_collective"] = float64(st.collNS) / total
	m["fl.share_eval"] = float64(st.evalNS) / total
}

// capture is one collective's submission and result, copied out of a traced
// run at an early, a middle and a late round for the replay probes.
type capture struct {
	kind   spanKind
	round  int
	send   []float64
	result []float64
}

// tracedAgg times every collective a strategy issues through inner.
type tracedAgg struct {
	inner     sparse.Aggregator
	rec       *recorder
	lane      int
	captureAt map[int]bool // rounds whose payloads are kept
	captured  []capture
}

var _ sparse.ContextAggregator = (*tracedAgg)(nil)

func (a *tracedAgg) AggregateModel(id, round int, v []float64) ([]float64, error) {
	return a.AggregateModelCtx(context.Background(), id, round, v)
}

func (a *tracedAgg) AggregateError(id, round int, v []float64) ([]float64, error) {
	return a.AggregateErrorCtx(context.Background(), id, round, v)
}

func (a *tracedAgg) AggregateModelCtx(ctx context.Context, id, round int, v []float64) ([]float64, error) {
	s := a.rec.begin(a.lane, spanModel, round)
	out, err := sparse.AggModel(ctx, a.inner, id, round, v)
	a.rec.end(a.lane, s)
	a.keep(spanModel, round, v, out)
	return out, err
}

func (a *tracedAgg) AggregateErrorCtx(ctx context.Context, id, round int, v []float64) ([]float64, error) {
	s := a.rec.begin(a.lane, spanError, round)
	out, err := sparse.AggError(ctx, a.inner, id, round, v)
	a.rec.end(a.lane, s)
	a.keep(spanError, round, v, out)
	return out, err
}

func (a *tracedAgg) keep(kind spanKind, round int, send, result []float64) {
	if a.captureAt[round] && send != nil && result != nil {
		a.captured = append(a.captured, capture{kind: kind, round: round,
			send: append([]float64(nil), send...), result: append([]float64(nil), result...)})
	}
}

// tracedSyncer times a strategy's Sync. It forwards everything the engine
// probes a strategy for, so a traced run computes what an untraced one does.
type tracedSyncer struct {
	inner sparse.Syncer
	rec   *recorder
	lane  int
}

var (
	_ sparse.ContextSyncer = (*tracedSyncer)(nil)
	_ sparse.Unwrapper     = (*tracedSyncer)(nil)
	_ sparse.WireSetter    = (*tracedSyncer)(nil)
)

func (t *tracedSyncer) Name() string          { return t.inner.Name() }
func (t *tracedSyncer) Unwrap() sparse.Syncer { return t.inner }
func (t *tracedSyncer) SetWire(w sparse.Wire) { sparse.SetSyncerWire(t.inner, w) }

func (t *tracedSyncer) Sync(round int, local []float64, contributor bool) ([]float64, sparse.Traffic, error) {
	return t.SyncCtx(context.Background(), round, local, contributor)
}

func (t *tracedSyncer) SyncCtx(ctx context.Context, round int, local []float64, contributor bool) ([]float64, sparse.Traffic, error) {
	s := t.rec.begin(t.lane, spanSync, round)
	out, tr, err := sparse.SyncContext(ctx, t.inner, round, local, contributor)
	t.rec.end(t.lane, s)
	return out, tr, err
}

// countingListener counts every byte that crosses the coordinator's sockets.
// All traffic of a session passes through the coordinator's end, so rx+tx is
// the session's socket total: payloads, gob envelopes and rpc headers.
type countingListener struct {
	net.Listener
	rx, tx atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

func (l *countingListener) total() int64 { return l.rx.Load() + l.tx.Load() }

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.rx.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.tx.Add(int64(n))
	return n, err
}
