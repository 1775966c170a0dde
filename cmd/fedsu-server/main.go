// Command fedsu-server runs the TCP aggregation coordinator for a real
// (non-emulated) federated deployment. Start it first, then launch
// fedsu-client processes pointing at its address.
//
// With -deadline set, each aggregation barrier closes that long after its
// first submission: clients that have not submitted by then are evicted
// and the round completes over the survivors, so one crashed client cannot
// wedge the session. Clients heartbeating within -hb-grace count as slow
// rather than dead and buy the barrier one extension.
//
// Clients and relays speak flrpc's framed protocol (DESIGN.md §5m): the
// first frame of a connection carries a magic and a version, so a peer
// built against another protocol version is refused at join with a message
// naming both (the protocol is at version 2 since the -compress entropy
// stage changed its bitstream: run one build on every party); frames are
// bounded by the session's model size; failures
// come back as typed status codes. On SIGINT/SIGTERM the server closes its
// listener and every connection it accepted and waits for their handlers
// before printing its counters.
//
// Usage:
//
//	fedsu-server -addr :7070 -clients 4 -workload cnn -scale 16 -deadline 30s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fedsu"
	"fedsu/internal/exp"
	"fedsu/internal/flrpc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fedsu-server:", err)
		os.Exit(1)
	}
}

// relayFlags are the flags a relay (-upstream) reads: it serves its block
// synchronously with the default codec and adopts the model size from the
// root.
var relayFlags = map[string]bool{"upstream": true, "addr": true, "clients": true, "deadline": true, "hb-grace": true}

// run is the whole command: it parses args, serves until SIGINT/SIGTERM or
// a serve failure, and reports to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fedsu-server", flag.ExitOnError)
	var (
		addr      = fs.String("addr", ":7070", "listen address")
		clients   = fs.Int("clients", 2, "expected number of clients")
		workload  = fs.String("workload", "cnn", "model/dataset pair: "+strings.Join(fedsu.WorkloadNames(), ", "))
		scale     = fs.Int("scale", 0, "model width divisor (0 = per-workload default; must match the clients)")
		seed      = fs.Int64("seed", 1, "model seed (must match the clients)")
		deadline  = fs.Duration("deadline", 0, "collective barrier deadline; clients missing it are evicted (0 = wait forever)")
		hbGrace   = fs.Duration("hb-grace", 0, "treat clients heard from this recently as alive at deadline expiry (0 = deadline)")
		async     = fs.Bool("async", false, "buffered-async aggregation: fold submissions as they arrive, no round barrier")
		asyncK    = fs.Int("k", 0, "async buffer size: apply the global every K contributions (default clients/2)")
		staleness = fs.Int("staleness", 8, "async: drop contributions more than this many versions behind (-1 = unlimited)")
		staleW    = fs.Float64("staleness-weight", 0.5, "async: per-version contribution weight decay in (0, 1]")
		fanout    = fs.Int("fanout", 0, "hierarchical aggregation: >= 2 runs the tree collective (relays join aligned id blocks, root folds partials; bit-identical to flat)")
		upstream  = fs.String("upstream", "", "run as a leaf-aggregator relay of this root coordinator instead of a root (serves -clients members, forwards one partial per round)")
		compress  = fs.String("compress", "", "wire compression chain spec for replies, e.g. topk,q4,rans (must match the clients' -compress; empty = default codec)")
	)
	fs.Parse(args)
	// A flag its mode does not use is refused instead of being dropped.
	// Visit walks only the flags set on the command line.
	var modeErr error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case modeErr != nil:
		case *upstream != "" && !relayFlags[f.Name]:
			modeErr = fmt.Errorf("-%s does not apply with -upstream: a relay takes -addr, -clients, -deadline and -hb-grace", f.Name)
		case !*async && (f.Name == "k" || f.Name == "staleness" || f.Name == "staleness-weight"):
			modeErr = fmt.Errorf("-%s applies only with -async", f.Name)
		}
	})
	if modeErr != nil {
		return modeErr
	}
	if *upstream != "" {
		return runRelay(stdout, *upstream, *addr, *clients, *deadline, *hbGrace)
	}

	w, err := exp.WorkloadByName(*workload)
	if err != nil {
		return err
	}
	size := w.Model(w.EffectiveScale(*scale), *seed+97).Size()

	cfg := flrpc.Config{
		NumClients:     *clients,
		ModelSize:      size,
		Deadline:       *deadline,
		HeartbeatGrace: *hbGrace,
		Fanout:         *fanout,
		Compress:       *compress,
		CompressSeed:   *seed,
	}
	if *async {
		k := *asyncK
		if k <= 0 {
			k = max(*clients/2, 1)
		}
		cfg.Async = fedsu.AsyncConfig{K: k, MaxStaleness: *staleness, StalenessWeight: *staleW}
	}
	coord, err := flrpc.NewCoordinatorWith(cfg)
	if err != nil {
		return err
	}
	svc, err := flrpc.Listen(*addr, coord)
	if err != nil {
		return err
	}
	mode := "sync barriers"
	if cfg.Async.Enabled() {
		mode = fmt.Sprintf("async K=%d maxStale=%d w=%.2f", cfg.Async.K, cfg.Async.MaxStaleness, cfg.Async.StalenessWeight)
	}
	if cfg.Fanout >= 2 {
		mode += fmt.Sprintf(", tree fanout %d", cfg.Fanout)
	}
	if *compress != "" {
		mode += ", compress " + *compress
	}
	fmt.Fprintf(stdout, "fedsu-server: coordinating %d clients on %s (%s, %d params, deadline %v, %s)\n",
		*clients, svc.Addr(), *workload, size, *deadline, mode)
	if err := serve(svc); err != nil {
		return err
	}
	if n := coord.EvictionCount(); n > 0 {
		fmt.Fprintf(stdout, "fedsu-server: evicted clients %v\n", coord.Evicted())
	}
	if cfg.Async.Enabled() {
		fmt.Fprintf(stdout, "fedsu-server: async applied %d globals, dropped %d stale contributions\n",
			coord.AsyncVersion(), coord.StaleDropCount())
	}
	if cfg.Fanout >= 2 {
		st := coord.TierStats()
		fmt.Fprintf(stdout, "fedsu-server: tree %d tiers, %d leaf folds, %d partials received\n",
			st.Tiers, st.LeafFolds, st.ForwardedPartials)
	}
	if s := coord.Counters().String(); s != "" {
		fmt.Fprintf(stdout, "fedsu-server: %s\n", s)
	}
	fmt.Fprintln(stdout, "fedsu-server: shutting down")
	return nil
}

// runRelay serves one aligned block of members as a leaf aggregator of
// the tree rooted at upstream: the model size and the block's base id are
// adopted from the root at join time, members dial this process exactly
// like a flat coordinator, and each round forwards a single partial-sum
// message upstream.
func runRelay(stdout io.Writer, upstream, addr string, members int, deadline, hbGrace time.Duration) error {
	relay, err := flrpc.NewRelay(flrpc.RelayConfig{
		Upstream:       upstream,
		BlockSize:      members,
		Deadline:       deadline,
		HeartbeatGrace: hbGrace,
	})
	if err != nil {
		return err
	}
	defer relay.Close()
	svc, err := flrpc.Listen(addr, relay.Coordinator())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fedsu-server: relay for %d members on %s (block base %d at root %s, %d params, deadline %v)\n",
		members, svc.Addr(), relay.BaseID(), upstream, relay.ModelSize(), deadline)
	if err := serve(svc); err != nil {
		return err
	}
	if n := relay.Coordinator().EvictionCount(); n > 0 {
		fmt.Fprintf(stdout, "fedsu-server: relay evicted members %v\n", relay.Coordinator().Evicted())
	}
	if s := relay.Coordinator().Counters().String(); s != "" {
		fmt.Fprintf(stdout, "fedsu-server: %s\n", s)
	}
	fmt.Fprintln(stdout, "fedsu-server: relay shutting down")
	return nil
}

// serve waits for SIGINT/SIGTERM, then closes svc and waits for its
// handlers. A serve loop that dies on its own returns its failure, so the
// process exits non-zero instead of hanging around with clients stranded.
func serve(svc *flrpc.Service) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-sig:
		svc.Close()
		<-svc.Done()
		return nil
	case <-svc.Done():
		return svc.Err()
	}
}
