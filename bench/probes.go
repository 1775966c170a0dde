package main

import (
	"fmt"
	"sync"
	"time"

	"fedsu/internal/flrpc"
	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
)

// Replay probes time one public function on payloads a traced run captured.
// They run on as many goroutines as the round had clients, each on its own
// client's payloads, so a probe carries the contention the same work carried
// inside the round and the numbers can be subtracted from a call's span.

// probeSamples is how many times each replay probe times its function.
const probeSamples = 60

// timeMS times fn probeSamples times on one goroutine (the model probes have
// no per-client payloads) and returns the samples in ms.
func timeMS(fn func()) []float64 {
	out := make([]float64, probeSamples)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = float64(time.Since(t0)) / 1e6
	}
	return out
}

// probePasses is how many times a probe cycles through the captured payloads.
const probePasses = 5

// timeEach calls fn(c, j) for every client c at once, for every captured
// payload j, probePasses times over, and returns each call's time in ms.
func timeEach(aggs []*tracedAgg, fn func(c, j int)) []float64 {
	per := make([][]float64, len(aggs))
	for pass := 0; pass < probePasses; pass++ {
		for j := range aggs[0].captured {
			var wg sync.WaitGroup
			for c := range aggs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					t0 := time.Now()
					fn(c, j)
					per[c] = append(per[c], float64(time.Since(t0))/1e6)
				}()
			}
			wg.Wait()
		}
	}
	var all []float64
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// probeWire times sparse's default vector codec on the captured submissions.
func probeWire(m map[string]float64, aggs []*tracedAgg) {
	if len(aggs[0].captured) == 0 {
		return
	}
	enc := make([][][]byte, len(aggs))
	dst := make([][]float64, len(aggs))
	for c, a := range aggs {
		enc[c] = make([][]byte, len(a.captured))
		for j, cp := range a.captured {
			enc[c][j] = sparse.EncodeVectorPayload(cp.send)
			dst[c] = make([]float64, max(len(dst[c]), len(cp.send)))
		}
	}
	buf := make([][]byte, len(aggs))
	timed(m, "sparse.wire_encode_ms_p50", timeEach(aggs, func(c, j int) {
		buf[c] = sparse.AppendVectorPayload(buf[c][:0], aggs[c].captured[j].send)
	}))
	timed(m, "sparse.wire_decode_ms_p50", timeEach(aggs, func(c, j int) {
		if _, err := sparse.DecodeVectorPayloadInto(dst[c], enc[c][j], len(dst[c])); err != nil {
			panic(err) // the bytes came from the encoder above
		}
	}))
	m["sparse.wire_bytes_per_value"] = float64(len(enc[0][0])) / float64(len(aggs[0].captured[0].send))
}

// probeChain times the negotiated chain on the captured submissions and
// results: the upload leg, the reply leg, and the two uncounted probes
// core.Manager makes of a pending submission (its image and its size).
func probeChain(m map[string]float64, aggs []*tracedAgg, chain *codec.Chain) {
	if len(aggs[0].captured) == 0 {
		return
	}
	wire := sparse.Wire{Chain: chain}
	up := make([][][]byte, len(aggs))
	down := make([][][]byte, len(aggs))
	for c, a := range aggs {
		for _, cp := range a.captured {
			up[c] = append(up[c], chain.AppendEncode(nil, cp.send))
			down[c] = append(down[c], chain.Reply().AppendEncode(nil, cp.result))
		}
	}
	buf := make([][]byte, len(aggs))
	decode := func(enc [][][]byte) func(c, j int) {
		return func(c, j int) {
			n := len(aggs[c].captured[j].send)
			if _, err := chain.DecodeInto(make([]float64, n), enc[c][j], n); err != nil {
				panic(err) // the bytes came from the encoder above
			}
		}
	}
	timed(m, "codec.encode_ms_p50", timeEach(aggs, func(c, j int) {
		buf[c] = chain.AppendEncode(buf[c][:0], aggs[c].captured[j].send)
	}))
	timed(m, "codec.decode_ms_p50", timeEach(aggs, decode(up)))
	timed(m, "codec.reply_encode_ms_p50", timeEach(aggs, func(c, j int) {
		buf[c] = chain.Reply().AppendEncode(buf[c][:0], aggs[c].captured[j].result)
	}))
	timed(m, "codec.reply_decode_ms_p50", timeEach(aggs, decode(down)))
	timed(m, "codec.image_ms_p50", timeEach(aggs, func(c, j int) { wire.Image(aggs[c].captured[j].send) }))
	timed(m, "codec.size_probe_ms_p50", timeEach(aggs, func(c, j int) { wire.Bytes(aggs[c].captured[j].send) }))
}

// probeHandler calls a fresh coordinator's Join and Aggregate directly, K
// goroutines at a time, on the captured submissions encoded as the clients
// encoded them: the coordinator's decode, fold and reply encode with no gob
// envelope and no socket. Each replayed collective gets the next round
// number, so the coordinator sees an ordinary session.
func probeHandler(m map[string]float64, p tcpParams, seed int64, aggs []*tracedAgg) error {
	if len(aggs[0].captured) == 0 {
		return nil
	}
	coord, err := flrpc.NewCoordinatorWith(flrpc.Config{NumClients: p.clients, ModelSize: p.n, Compress: p.compress, CompressSeed: seed})
	if err != nil {
		return err
	}
	encode := sparse.EncodeVectorPayload
	if p.compress != "" {
		chain, err := codec.Parse(p.compress, seed)
		if err != nil {
			return err
		}
		encode = func(v []float64) []byte { return chain.AppendEncode(nil, v) }
	}
	payloads := make([][][]byte, len(aggs))
	for c, a := range aggs {
		var jr flrpc.JoinReply
		if err := coord.Join(flrpc.JoinArgs{Name: fmt.Sprintf("probe-%d", c)}, &jr); err != nil {
			return err
		}
		for _, cp := range a.captured {
			payloads[c] = append(payloads[c], encode(cp.send))
		}
	}
	kinds := map[spanKind]string{spanModel: "model", spanError: "error"}
	errs := make([]error, len(aggs))
	next := make([]int, len(aggs)) // per client: the round number of its next call
	ms := timeEach(aggs, func(c, j int) {
		var reply flrpc.AggReply
		args := flrpc.AggArgs{ClientID: c, Round: next[c], Kind: kinds[aggs[c].captured[j].kind], Payload: payloads[c][j]}
		next[c]++
		if err := coord.Aggregate(args, &reply); err != nil {
			errs[c] = err
		}
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("handler probe: %w", err)
		}
	}
	timed(m, "flrpc.handler_ms_p50", ms)
	return nil
}
