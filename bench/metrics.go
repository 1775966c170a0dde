package main

import (
	"fmt"
	"io"
)

// metricDef names one reported number. The tables below are the benchmark's
// contract: BENCHMARK.json repeats them (a test keeps the two in step) and
// later changes refer to workloads and metrics by these names.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
	Def    string
}

// endToEnd are measured with tracing off and reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "construct everything (dataset, partition, models, listen/dial/join) through the last warm-up round; median of five set-ups, three before the timed phase and two after"},
	{"rounds_per_s", "1/s", "higher", 0.25, "rounds / sum of round wall over each block of ten consecutive timed rounds, median over the blocks"},
	{"round_ms_p50", "ms", "lower", 0.25, "median wall of one closed-loop round"},
	{"wire_bytes_per_round", "B", "lower", 0.10, "sum over clients of Traffic.UpBytes+DownBytes per round, over the fixed count window"},
	{"alloc_mb_per_round", "MB", "lower", 0.10, "delta MemStats.TotalAlloc over the timed phase / rounds"},
	{"live_heap_mb", "MB", "lower", 0.25, "HeapAlloc after two runtime.GC() at the end of the timed phase"},
}

// perLayer come from the traced run's spans (S), from replay probes that time
// a public function on inputs captured in the traced run (P), or are exact
// counts (C). A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"fl.client_train_ms_p50", "ms", "lower", 0, "S: round start to Sync entry, per client"},
	{"fl.share_train", "ratio", "lower", 0, "S: share of summed client time before Sync entry"},
	{"fl.share_sync_self", "ratio", "lower", 0, "S: share of summed client time in Sync outside collectives"},
	{"fl.share_collective", "ratio", "lower", 0, "S: share of summed client time inside collectives"},
	{"fl.share_eval", "ratio", "lower", 0, "S: share of summed client time in evaluation"},
	{"fl.barrier_skew_ms_p50", "ms", "lower", 0, "S: last minus first model-collective entry per round"},
	{"fl.collective_ms_p50", "ms", "lower", 0, "S: in-process collective call (Aggregator wrapper)"},
	{"fl.inproc_round_ms_p50", "ms", "lower", 0, "P: the same inputs replayed through fl.Server in-process"},
	{"flrpc.tcp_over_inproc_ratio", "ratio", "lower", 0, "TCP round p50 / in-process replay round p50, same rounds"},
	{"fl.sample_cohort_ms_p50", "ms", "lower", 0, "S: Population.SampleCohort"},
	{"fl.flat_round_ms_p50", "ms", "lower", 0, "P: cohort round through the flat fl.Server (also the check arm)"},
	{"fl.tree_leaf_folds_per_round", "count", "lower", 0, "C: Tree.Stats().LeafFolds per round"},
	{"fl.tree_forwarded_partials_per_round", "count", "lower", 0, "C: Tree.Stats().ForwardedPartials per round"},
	{"fl.evictions", "count", "lower", 0, "C: EvictionCount over the run"},
	{"fl.timeouts", "count", "lower", 0, "C: TimeoutCount over the run"},
	{"fl.failed_ops_ratio", "ratio", "lower", 0, "C: (failed calls + evictions + timeouts + retries + reconnects) / calls attempted"},
	{"fl.eval_ms_p50", "ms", "lower", 0, "S: Engine.EvaluateGlobal"},
	{"fl.round_ms_p90", "ms", "lower", 0, "round wall p90, untraced; 0 below 100 samples (ungated: does not repeat within a tenth)"},
	{"fl.round_samples", "count", "higher", 0, "number of timed rounds behind the untraced round timings"},
	{"fl.time_to_target_s", "s", "lower", 0, "wall from first timed round to the evaluation that first reaches accuracy >= 0.95, evals included"},
	{"fl.rounds_to_target", "rounds", "lower", 0, "C: round index of that evaluation"},
	{"core.sync_self_ms_p50", "ms", "lower", 0, "S: core.Manager Sync minus its collectives"},
	{"sparse.sync_self_ms_p50", "ms", "lower", 0, "S: sparse.FedAvg Sync minus its collective"},
	{"core.collectives_per_round", "count", "lower", 0, "C: collective calls per client per round"},
	{"core.error_rounds_share", "ratio", "lower", 0, "C: share of rounds that ran the error collective"},
	{"core.synced_params_per_round", "count", "lower", 0, "C: Traffic.SyncedParams per client per round"},
	{"core.checked_params_per_round", "count", "lower", 0, "C: Traffic.CheckedParams per client per round"},
	{"core.predictable_fraction_final", "ratio", "higher", 0, "C: speculative share of parameters at the end of the count window"},
	{"core.sparsification_ratio", "ratio", "higher", 0, "C: mean Traffic.SparsificationRatio over the count window (the paper's Fig. 5)"},
	{"flrpc.call_ms_p50", "ms", "lower", 0, "S: flrpc.Client collective call (Aggregator wrapper), both kinds"},
	{"flrpc.call_model_ms_p50", "ms", "lower", 0, "S: model collective calls only"},
	{"flrpc.call_error_ms_p50", "ms", "lower", 0, "S: error collective calls only"},
	{"flrpc.handler_ms_p50", "ms", "lower", 0, "P: K goroutines calling Coordinator.Aggregate directly on captured payloads"},
	{"flrpc.transport_ms_p50", "ms", "lower", 0, "call - handler - client encode - client decode: gob envelope, socket, scheduling"},
	{"flrpc.socket_bytes_per_round", "B", "lower", 0, "C: counting listener rx+tx per round"},
	{"flrpc.agg_rx_bytes_per_round", "B", "lower", 0, "C: Coordinator.Counters agg_rx_bytes per round (uplink payloads)"},
	{"flrpc.agg_tx_bytes_per_round", "B", "lower", 0, "C: Coordinator.Counters agg_tx_bytes per round (downlink payloads)"},
	{"flrpc.envelope_overhead_ratio", "ratio", "lower", 0, "socket bytes / payload bytes - 1"},
	{"flrpc.setup_join_ms", "ms", "lower", 0, "S: dial and join of all K clients"},
	{"flrpc.retries", "count", "lower", 0, "C: Client.Counters retries, all clients"},
	{"flrpc.reconnects", "count", "lower", 0, "C: Client.Counters reconnects, all clients"},
	{"codec.encode_ms_p50", "ms", "lower", 0, "P: Chain.AppendEncode on a captured submission"},
	{"codec.decode_ms_p50", "ms", "lower", 0, "P: Chain.DecodeInto of that encoding"},
	{"codec.reply_encode_ms_p50", "ms", "lower", 0, "P: Chain.Reply().AppendEncode on a captured result"},
	{"codec.reply_decode_ms_p50", "ms", "lower", 0, "P: decode of that reply"},
	{"codec.image_ms_p50", "ms", "lower", 0, "P: Wire.Image on a captured submission"},
	{"codec.size_probe_ms_p50", "ms", "lower", 0, "P: Wire.Bytes on a captured submission"},
	{"codec.stage.topk.ratio", "ratio", "lower", 0, "C: Chain.Counters out/in bytes of the topk stage"},
	{"codec.stage.q4.ratio", "ratio", "lower", 0, "C: out/in bytes of the q4 stage"},
	{"codec.stage.rans.ratio", "ratio", "lower", 0, "C: out/in bytes of the rans stage"},
	{"sparse.wire_encode_ms_p50", "ms", "lower", 0, "P: sparse.AppendVectorPayload on a captured submission"},
	{"sparse.wire_decode_ms_p50", "ms", "lower", 0, "P: sparse.DecodeVectorPayloadInto of that encoding"},
	{"sparse.wire_bytes_per_value", "B", "lower", 0, "C: encoded bytes per value of that submission"},
	{"data.sample_batch_ms_p50", "ms", "lower", 0, "P: Subset.SampleBatchOf"},
	{"nn.forward_ms_p50", "ms", "lower", 0, "P: Model.Loss"},
	{"nn.train_step_ms_p50", "ms", "lower", 0, "P: Model.TrainStep (forward + backward)"},
	{"nn.backward_ms_p50", "ms", "lower", 0, "train step - forward"},
	{"opt.step_ms_p50", "ms", "lower", 0, "P: SGD.Step"},
	{"nn.extract_vector_ms_p50", "ms", "lower", 0, "P: Model.ExtractVector"},
	{"nn.load_vector_ms_p50", "ms", "lower", 0, "P: Model.LoadVector"},
	{"tensor.matmul_gflops", "GFLOP/s", "higher", 0, "P: tensor.MatMulInto at the CNN fc1 shape, operation count / time"},
	{"netem.emu_round_s_mean", "s", "lower", 0, "C: mean RoundStats.Duration, the emulated clock (informational)"},
	{"netem.emu_time_to_target_s", "s", "lower", 0, "C: RoundStats.SimTime at the target evaluation (the paper's Table I number)"},
	{"ckpt.save_ms", "ms", "lower", 0, "P: Engine.Checkpoint + ckpt.Save after the traced run"},
	{"ckpt.load_ms", "ms", "lower", 0, "P: ckpt.Load of that file"},
	{"ckpt.bytes", "B", "lower", 0, "C: size of that file"},
	{"trace.overhead_ratio", "ratio", "lower", 0, "median over rounds of traced / untraced round wall, same round index, run in turns, - 1"},
}

// unitOf looks a metric's unit up in both tables.
func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// list prints every workload and metric without running anything.
func list(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-16s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (tracing off, every workload):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-38s %-8s %-6s bound %.2f  %s\n", d.Name, d.Unit, d.Better, d.Bound, d.Def)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run, probes and counts; ungated):")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-38s %-8s %-6s %s\n", d.Name, d.Unit, d.Better, d.Def)
	}
}
