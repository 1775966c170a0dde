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
	"syscall"
	"time"

	"fedsu/internal/exp"
	"fedsu/internal/flrpc"
)

func main() { exp.Main("fedsu-server", run) }

// relayFlags are the flags a relay (-upstream) reads: it serves its block
// with the default codec and adopts the model size from the root.
var relayFlags = map[string]bool{"upstream": true, "addr": true, "clients": true, "deadline": true, "hb-grace": true}

// options are the coordinator's own flags, beside the session's exp.Config.
type options struct {
	addr, upstream    string
	deadline, hbGrace time.Duration
}

// newFlags sets session to fedsu-server's defaults and defines its flag
// set: the session flags write straight into session, the coordinator's
// own into o.
func newFlags(session *exp.Config, o *options) *flag.FlagSet {
	*session = exp.Config{Workload: "cnn", Clients: 2, Seed: 1}
	fs := flag.NewFlagSet("fedsu-server", flag.ContinueOnError)
	exp.BindFlags(fs, session, "clients", "workload", "scale", "seed", "fanout", "compress")
	fs.StringVar(&o.addr, "addr", ":7070", "listen address")
	fs.DurationVar(&o.deadline, "deadline", 0, "collective barrier deadline; clients missing it are evicted (0 = wait forever)")
	fs.DurationVar(&o.hbGrace, "hb-grace", 0, "treat clients heard from this recently as alive at deadline expiry (0 = deadline)")
	fs.StringVar(&o.upstream, "upstream", "", "run as a leaf-aggregator relay of this root coordinator instead of a root (serves -clients members, forwards one partial per round)")
	return fs
}

// run is the whole command: it parses args, serves until SIGINT/SIGTERM or
// a serve failure, and reports to stdout.
func run(args []string, stdout io.Writer) error {
	var session exp.Config
	var o options
	fs := newFlags(&session, &o)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A flag a relay does not read is refused instead of being dropped.
	// Visit walks only the flags set on the command line.
	var relayErr error
	fs.Visit(func(f *flag.Flag) {
		if relayErr == nil && o.upstream != "" && !relayFlags[f.Name] {
			relayErr = fmt.Errorf("-%s does not apply with -upstream: a relay takes -addr, -clients, -deadline and -hb-grace", f.Name)
		}
	})
	if relayErr != nil {
		return relayErr
	}
	if o.upstream != "" {
		return runRelay(stdout, o.upstream, o.addr, session.Clients, o.deadline, o.hbGrace)
	}
	size, err := exp.ModelSize(session)
	if err != nil {
		return err
	}
	cfg := flrpc.Config{
		NumClients:     session.Clients,
		ModelSize:      size,
		Deadline:       o.deadline,
		HeartbeatGrace: o.hbGrace,
		Fanout:         session.Fanout,
		Compress:       session.Compress,
		CompressSeed:   session.Seed,
	}
	coord, err := flrpc.NewCoordinatorWith(cfg)
	if err != nil {
		return err
	}
	svc, err := flrpc.Listen(o.addr, coord)
	if err != nil {
		return err
	}
	mode := "sync barriers"
	if cfg.Fanout >= 2 {
		mode += fmt.Sprintf(", tree fanout %d", cfg.Fanout)
	}
	if cfg.Compress != "" {
		mode += ", compress " + cfg.Compress
	}
	fmt.Fprintf(stdout, "fedsu-server: coordinating %d clients on %s (%s, %d params, deadline %v, %s)\n",
		cfg.NumClients, svc.Addr(), session.Workload, size, o.deadline, mode)
	if err := serve(svc); err != nil {
		return err
	}
	if n := coord.EvictionCount(); n > 0 {
		fmt.Fprintf(stdout, "fedsu-server: evicted clients %v\n", coord.Evicted())
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
