// Command fedsu-client joins a fedsu-server coordinator over TCP and
// trains locally with the selected synchronization strategy. Every client
// of a session must use the same workload, scale, seed, and scheme.
//
// Transport failures mid-round are retried with exponential backoff and a
// transparent reconnect-and-rejoin (-retries); -heartbeat keeps the
// coordinator informed that a slow client is still alive. What the
// coordinator refuses — eviction after a missed deadline, a submission for
// a round the session has left, a payload it cannot decode, a protocol
// version it does not speak (version 2 now: a client and a server from
// different builds do not mix) — arrives as a typed error and ends the round
// at once instead of being retried. Ctrl-C cancels
// the in-flight round cleanly instead of leaving the process parked on a
// barrier.
//
// Usage:
//
//	fedsu-client -addr host:7070 -workload cnn -scheme fedsu -rounds 60
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fedsu"
	"fedsu/internal/data"
	"fedsu/internal/exp"
	"fedsu/internal/fl"
	"fedsu/internal/opt"
	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
	"fedsu/internal/tensor"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "coordinator address")
		name      = flag.String("name", "client", "client label")
		workload  = flag.String("workload", "cnn", "model/dataset pair: "+strings.Join(fedsu.WorkloadNames(), ", "))
		scheme    = flag.String("scheme", "fedsu", "sync strategy: "+strings.Join(fedsu.StrategyNames(), ", "))
		rounds    = flag.Int("rounds", 60, "training rounds")
		iters     = flag.Int("iters", 5, "local iterations per round")
		batch     = flag.Int("batch", 8, "mini-batch size")
		samples   = flag.Int("samples", 1024, "synthetic dataset size (shared across the fleet)")
		scale     = flag.Int("scale", 0, "model width divisor (0 = per-workload default; must match the server)")
		seed      = flag.Int64("seed", 1, "fleet-shared seed")
		retries   = flag.Int("retries", 4, "collective-call retries on transport failure (-1 disables)")
		dtype     = flag.String("dtype", "float64", "compute precision: float64 or float32 (must match the fleet)")
		heartbeat = flag.Duration("heartbeat", time.Second, "heartbeat interval so the coordinator can tell slow from dead (0 disables)")
		compress  = flag.String("compress", "", "wire compression chain spec for uploads, e.g. topk,q4,rans (must match the server's -compress; empty = default codec)")
	)
	flag.Parse()

	w, err := exp.WorkloadByName(*workload)
	if err != nil {
		fatal(err)
	}
	dt, err := tensor.ParseDType(*dtype)
	if err != nil {
		fatal(err)
	}

	if err := fl.CheckMode(fl.Config{DType: dt, Compress: *compress}, ""); err != nil {
		fatal(err)
	}

	conn, err := fedsu.DialCoordinatorWith(*addr, fedsu.ClientConfig{
		Name:         *name,
		MaxRetries:   *retries,
		Heartbeat:    *heartbeat,
		Compress:     *compress,
		CompressSeed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	defer conn.Close()
	id := conn.ClientID()
	fmt.Printf("fedsu-client: joined as client %d of %d\n", id, conn.NumClients())

	model := w.ModelOf(dt, w.EffectiveScale(*scale), *seed+97)
	if model.Size() != conn.ModelSize() {
		fatal(fmt.Errorf("model size %d does not match session %d (check -workload/-scale/-seed)",
			model.Size(), conn.ModelSize()))
	}

	// Every client generates the same dataset from the shared seed, then
	// takes its Dirichlet shard by id — the deterministic analogue of each
	// device owning private data.
	ds := w.Dataset(*samples, *seed+31)
	shards := data.PartitionDirichlet(ds, conn.NumClients(), 1.0, *seed)
	shard := shards[id]

	opts := fedsu.DefaultOptions()
	if dt == tensor.Float32 {
		// Keep the FedSU state machine in the wire image the float32 model
		// actually stores (see core.Options.Quantize).
		opts.Quantize = true
	}
	factory, err := fl.StrategyFactoryWith(*scheme, opts)
	if err != nil {
		fatal(err)
	}
	syncer := factory(id, model.Size(), conn)
	if *compress != "" {
		// The transport does the actual encode/decode; the local strategy
		// only needs the chain for byte accounting, so the printed
		// sparsification ratio is rebased on the negotiated chain's dense
		// cost rather than the legacy f32 codec's.
		chain, err := codec.Parse(*compress, *seed)
		if err != nil {
			fatal(err)
		}
		if !chain.IsDefault() {
			sparse.SetSyncerWire(syncer, sparse.Wire{Chain: chain})
		}
	}
	client := fl.NewClient(id, model, newOptimizer(w), shard, syncer, *seed)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var total sparse.Traffic
	for k := 0; k < *rounds; k++ {
		loss := client.TrainLocal(k, *iters, *batch)
		tr, err := client.SyncRoundCtx(ctx, k, true)
		if err != nil {
			switch {
			case errors.Is(err, context.Canceled):
				fmt.Println("fedsu-client: interrupted, leaving session")
				return
			case errors.Is(err, fedsu.ErrEvicted):
				fatal(fmt.Errorf("evicted by coordinator at round %d (missed the collective deadline): %w", k, err))
			default:
				fatal(err)
			}
		}
		total.Add(tr)
		fmt.Printf("round %3d: train_loss=%.4f synced=%d/%d up=%dB\n",
			k, loss, tr.SyncedParams, tr.TotalParams, tr.UpBytes)
	}
	fmt.Printf("done: total up=%.2fMB down=%.2fMB mean sparsification=%.1f%%\n",
		float64(total.UpBytes)/1e6, float64(total.DownBytes)/1e6,
		100*total.SparsificationRatio())
	if s := conn.Counters().String(); s != "" {
		fmt.Printf("fedsu-client: %s\n", s)
	}
}

// newOptimizer builds the client's optimizer: the one an in-process engine
// gives every client of the same workload, SGD at the emulation learning
// rate (the stand-in model is built at the emulation scale too) with weight
// decay 0.001.
func newOptimizer(w exp.Workload) *opt.SGD {
	return opt.NewSGD(w.EffectiveLR(), opt.WithWeightDecay(0.001))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedsu-client:", err)
	os.Exit(1)
}
