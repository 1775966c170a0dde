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
	"io"
	"os/signal"
	"syscall"
	"time"

	"fedsu"
	"fedsu/internal/exp"
	"fedsu/internal/sparse"
)

func main() { exp.Main("fedsu-client", run) }

// options are the client's own flags, beside the run's exp.Config.
type options struct {
	addr, name string
	retries    int
	heartbeat  time.Duration
}

// newFlags sets cfg to fedsu-client's defaults and defines its flag set:
// the run flags write straight into cfg, the connection's own into o. The
// fleet size comes from the coordinator at join.
func newFlags(cfg *exp.Config, o *options) *flag.FlagSet {
	*cfg = exp.Config{
		Workload: "cnn", Scheme: "fedsu", Rounds: 60, LocalIters: 5, BatchSize: 8,
		Samples: 1024, Seed: 1, FedSU: fedsu.DefaultOptions(),
	}
	fs := flag.NewFlagSet("fedsu-client", flag.ContinueOnError)
	exp.BindFlags(fs, cfg, "workload", "scheme", "rounds", "iters", "batch", "samples", "scale", "seed", "compress")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7070", "coordinator address")
	fs.StringVar(&o.name, "name", "client", "client label")
	fs.IntVar(&o.retries, "retries", 4, "collective-call retries on transport failure (-1 disables)")
	fs.DurationVar(&o.heartbeat, "heartbeat", time.Second, "heartbeat interval so the coordinator can tell slow from dead (0 disables)")
	return fs
}

// run is the whole command: it parses args, joins the session, trains its
// rounds and reports to stdout. Ctrl-C leaves the session cleanly.
func run(args []string, stdout io.Writer) error {
	var cfg exp.Config
	var o options
	fs := newFlags(&cfg, &o)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := exp.WorkloadByName(cfg.Workload); err != nil {
		return err
	}

	conn, err := fedsu.DialCoordinatorWith(o.addr, fedsu.ClientConfig{
		Name:         o.name,
		MaxRetries:   o.retries,
		Heartbeat:    o.heartbeat,
		Compress:     cfg.Compress,
		CompressSeed: cfg.Seed,
	})
	if err != nil {
		return err
	}
	defer conn.Close()
	id := conn.ClientID()
	fmt.Fprintf(stdout, "fedsu-client: joined as client %d of %d\n", id, conn.NumClients())
	cfg.Clients = conn.NumClients()
	client, err := exp.NewClient(cfg, id, conn)
	if err != nil {
		return err
	}
	if size := client.Model().Size(); size != conn.ModelSize() {
		return fmt.Errorf("model size %d does not match session %d (check -workload/-scale/-seed)", size, conn.ModelSize())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var total sparse.Traffic
	for k := 0; k < cfg.Rounds; k++ {
		loss := client.TrainLocal(k, cfg.LocalIters, cfg.BatchSize)
		tr, err := client.SyncRoundCtx(ctx, k, true)
		switch {
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(stdout, "fedsu-client: interrupted, leaving session")
			return nil
		case errors.Is(err, fedsu.ErrEvicted):
			return fmt.Errorf("evicted by coordinator at round %d (missed the collective deadline): %w", k, err)
		case err != nil:
			return err
		}
		total.Add(tr)
		fmt.Fprintf(stdout, "round %3d: train_loss=%.4f synced=%d/%d up=%dB\n",
			k, loss, tr.SyncedParams, tr.TotalParams, tr.UpBytes)
	}
	fmt.Fprintf(stdout, "done: total up=%.2fMB down=%.2fMB mean sparsification=%.1f%%\n",
		float64(total.UpBytes)/1e6, float64(total.DownBytes)/1e6,
		100*total.SparsificationRatio())
	if s := conn.Counters().String(); s != "" {
		fmt.Fprintf(stdout, "fedsu-client: %s\n", s)
	}
	return nil
}
