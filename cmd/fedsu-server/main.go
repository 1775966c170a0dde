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
	var (
		addr      = flag.String("addr", ":7070", "listen address")
		clients   = flag.Int("clients", 2, "expected number of clients")
		workload  = flag.String("workload", "cnn", "model/dataset pair: "+strings.Join(fedsu.WorkloadNames(), ", "))
		scale     = flag.Int("scale", 0, "model width divisor (0 = per-workload default; must match the clients)")
		seed      = flag.Int64("seed", 1, "model seed (must match the clients)")
		deadline  = flag.Duration("deadline", 0, "collective barrier deadline; clients missing it are evicted (0 = wait forever)")
		hbGrace   = flag.Duration("hb-grace", 0, "treat clients heard from this recently as alive at deadline expiry (0 = deadline)")
		async     = flag.Bool("async", false, "buffered-async aggregation: fold submissions as they arrive, no round barrier")
		asyncK    = flag.Int("k", 0, "async buffer size: apply the global every K contributions (default clients/2)")
		staleness = flag.Int("staleness", 8, "async: drop contributions more than this many versions behind (-1 = unlimited)")
		staleW    = flag.Float64("staleness-weight", 0.5, "async: per-version contribution weight decay in (0, 1]")
		fanout    = flag.Int("fanout", 0, "hierarchical aggregation: >= 2 runs the tree collective (relays join aligned id blocks, root folds partials; bit-identical to flat)")
		upstream  = flag.String("upstream", "", "run as a leaf-aggregator relay of this root coordinator instead of a root (serves -clients members, forwards one partial per round)")
		compress  = flag.String("compress", "", "wire compression chain spec for replies, e.g. topk,q4,rans (must match the clients' -compress; empty = default codec)")
	)
	flag.Parse()

	if *upstream != "" {
		runRelay(*upstream, *addr, *clients, *deadline, *hbGrace)
		return
	}

	w, err := exp.WorkloadByName(*workload)
	if err != nil {
		fatal(err)
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
			k = *clients / 2
			if k < 1 {
				k = 1
			}
		}
		cfg.Async = fedsu.AsyncConfig{K: k, MaxStaleness: *staleness, StalenessWeight: *staleW}
	}
	coord, err := flrpc.NewCoordinatorWith(cfg)
	if err != nil {
		fatal(err)
	}
	svc, err := flrpc.Listen(*addr, coord)
	if err != nil {
		fatal(err)
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
	fmt.Printf("fedsu-server: coordinating %d clients on %s (%s, %d params, deadline %v, %s)\n",
		*clients, svc.Addr(), *workload, size, *deadline, mode)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-sig:
		svc.Close()
		<-svc.Done()
	case <-svc.Done():
		// The serve loop died on its own: surface the failure as a non-zero
		// exit instead of hanging around with clients stranded.
		if err := svc.Err(); err != nil {
			fatal(err)
		}
	}
	if n := coord.EvictionCount(); n > 0 {
		fmt.Printf("fedsu-server: evicted clients %v\n", coord.Evicted())
	}
	if cfg.Async.Enabled() {
		fmt.Printf("fedsu-server: async applied %d globals, dropped %d stale contributions\n",
			coord.AsyncVersion(), coord.StaleDropCount())
	}
	if cfg.Fanout >= 2 {
		st := coord.TierStats()
		fmt.Printf("fedsu-server: tree %d tiers, %d leaf folds, %d partials received\n",
			st.Tiers, st.LeafFolds, st.ForwardedPartials)
	}
	if s := coord.Counters().String(); s != "" {
		fmt.Printf("fedsu-server: %s\n", s)
	}
	fmt.Println("fedsu-server: shutting down")
}

// runRelay serves one aligned block of members as a leaf aggregator of
// the tree rooted at upstream: the model size and the block's base id are
// adopted from the root at join time, members dial this process exactly
// like a flat coordinator, and each round forwards a single partial-sum
// message upstream.
func runRelay(upstream, addr string, members int, deadline, hbGrace time.Duration) {
	relay, err := flrpc.NewRelay(flrpc.RelayConfig{
		Upstream:       upstream,
		BlockSize:      members,
		Deadline:       deadline,
		HeartbeatGrace: hbGrace,
	})
	if err != nil {
		fatal(err)
	}
	defer relay.Close()
	svc, err := flrpc.Listen(addr, relay.Coordinator())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fedsu-server: relay for %d members on %s (block base %d at root %s, %d params, deadline %v)\n",
		members, svc.Addr(), relay.BaseID(), upstream, relay.ModelSize(), deadline)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-sig:
		svc.Close()
		<-svc.Done()
	case <-svc.Done():
		if err := svc.Err(); err != nil {
			fatal(err)
		}
	}
	if n := relay.Coordinator().EvictionCount(); n > 0 {
		fmt.Printf("fedsu-server: relay evicted members %v\n", relay.Coordinator().Evicted())
	}
	if s := relay.Coordinator().Counters().String(); s != "" {
		fmt.Printf("fedsu-server: %s\n", s)
	}
	fmt.Println("fedsu-server: relay shutting down")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedsu-server:", err)
	os.Exit(1)
}
