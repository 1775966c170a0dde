// Package flrpc provides the real-network deployment mode of the federated
// engine: a TCP coordinator exposing the aggregation collectives over
// net/rpc (stdlib), and a client-side sparse.Aggregator that calls into
// it. It plays the role RPyC plays in the paper's Python implementation.
//
// The rpc envelope is gob, but the parameter vectors themselves travel as
// sparse vector-codec payloads (sparse.AppendVectorPayload): a
// self-describing bitmap/index body over the nonzero entries with float32
// values — the paper's 32-bit traffic model — instead of gob's ~9
// bytes-per-float64 framing. Encode buffers are pooled on the client and
// decode vectors are pooled on the coordinator, so a steady-state
// collective round performs no payload allocation on the hot path; the
// coordinator additionally encodes each collective's reply once and serves
// the cached bytes to every waiter.
//
// The in-process engine (internal/fl) and this package share the exact same
// strategy code: a FedSU manager cannot tell whether its Aggregator is the
// in-process server or a TCP connection.
//
// # Fault tolerance
//
// A coordinator built with a Deadline closes each collective barrier a
// deadline after its first submission arrives: clients that have not
// submitted by then are evicted, the mean is computed over the actual
// contributors, and late submissions from evicted clients fail with
// fl.ErrEvicted instead of corrupting a later round. Client heartbeats
// (Ping) let the coordinator distinguish slow from dead — a missing client
// with a fresh heartbeat buys the barrier one deadline extension. The
// Client retries transient transport failures with exponential backoff and
// jitter, transparently reconnecting and rejoining by id; the coordinator
// treats a resubmission after reconnect idempotently.
package flrpc

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/rpc"
	"sync"
	"time"

	"fedsu/internal/fl"
	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
	"fedsu/internal/trace"
)

// ServiceName is the registered net/rpc service.
const ServiceName = "FedSU"

// ErrEvicted aliases fl.ErrEvicted: the coordinator evicted this client
// after a missed collective deadline. Match with errors.Is.
var ErrEvicted = fl.ErrEvicted

// evictedMarker recovers the typed eviction error from the flattened
// string net/rpc delivers; it must match fl.EvictedError's message.
const evictedMarker = "evicted from session"

// JoinArgs identifies a joining client.
type JoinArgs struct {
	// Name is a human-readable client label (diagnostics only).
	Name string
	// Rejoin requests re-admission of a previously assigned id after a
	// reconnect; ClientID carries that id. The coordinator clears the
	// client's evicted status (if any) so it re-enters the roster at the
	// next round's barriers.
	Rejoin   bool
	ClientID int
	// BlockSize, when positive, reserves a contiguous aligned block of
	// ids for a leaf-aggregator relay instead of a single client id; the
	// reply's ClientID is the block's base id (== its roster rank, ids
	// being assigned densely from zero). Only valid against a tree-mode
	// coordinator (Config.Fanout), and the base must land on a fanout
	// boundary — join relays before (or instead of) direct clients so the
	// blocks stay aligned.
	BlockSize int
}

// JoinReply assigns the client its id and describes the session.
type JoinReply struct {
	// ClientID is the stable id to use in collectives.
	ClientID int
	// NumClients is the session size; collectives block until that many
	// submissions arrive.
	NumClients int
	// ModelSize is the expected parameter-vector length.
	ModelSize int
}

// PingArgs is a client heartbeat.
type PingArgs struct {
	ClientID int
}

// PingReply acknowledges a heartbeat.
type PingReply struct{}

// AggArgs is one collective submission.
type AggArgs struct {
	ClientID int
	Round    int
	// Kind selects the collective: "model" or "error".
	Kind string
	// Payload is the contribution encoded with the sparse vector codec
	// (sparse.AppendVectorPayload). Abstain — not an empty Payload — is the
	// wire truth for abstention: gob flattens a non-nil empty slice to nil
	// in transit, and every real contribution (including the zero-length
	// one) encodes to a non-empty payload, so the flag keeps the two
	// unambiguous on arrival.
	Payload []byte
	Abstain bool
}

// contribution decodes the submitted vector, resolving the abstention
// ambiguity: Abstain returns nil (no contribution), everything else
// decodes the payload — a zero-length contribution comes back empty but
// non-nil, exactly as sent. dst and maxParams follow
// sparse.DecodeVectorPayloadInto. Both the coordinator and the wire fuzz
// target route through this single normalization point.
func (a AggArgs) contribution(dst []float64, maxParams int) ([]float64, error) {
	if a.Abstain {
		return nil, nil
	}
	return sparse.DecodeVectorPayloadInto(dst, a.Payload, maxParams)
}

// AggReply returns the collective result.
type AggReply struct {
	// Payload is the element-wise mean over contributors, encoded with the
	// sparse vector codec; Nil reports that no client contributed (the wire
	// truth, for the same gob nil-vs-empty reason as AggArgs.Abstain).
	Payload []byte
	Nil     bool
}

// contribution decodes the collective result with the same ambiguity
// resolved in the reply direction: Nil is the truth for "no contributors",
// and a non-nil-but-empty mean decodes back to empty but non-nil.
func (r AggReply) contribution(maxParams int) ([]float64, error) {
	if r.Nil {
		return nil, nil
	}
	return sparse.DecodeVectorPayloadInto(nil, r.Payload, maxParams)
}

// PartialArgs is one tier partial-aggregate submission: a leaf relay's
// already-folded block, replacing its members' individual uploads.
type PartialArgs struct {
	// ClientID is the relay's block base id (assigned by the block Join).
	ClientID int
	Round    int
	// Kind selects the collective: "model" or "error".
	Kind string
	// Payload is the partial encoded with the partial-aggregate codec
	// (sparse.AppendPartialPayload): raw float64 sum + contributor weight
	// + accounted traffic. Raw float64 because a partial is an
	// intermediate of the canonical fold — quantizing it would break the
	// tree-vs-flat bit-identity contract.
	Payload []byte
}

// Config assembles a fault-tolerant coordinator.
type Config struct {
	// NumClients is the session size.
	NumClients int
	// ModelSize is the expected parameter-vector length.
	ModelSize int
	// Deadline bounds each collective barrier: a client missing the
	// deadline (measured from the barrier's first submission) is evicted
	// and the round completes over the survivors. Zero keeps blocking
	// barriers — exactly the pre-fault-tolerance behaviour.
	Deadline time.Duration
	// HeartbeatGrace is how recently a client must have been heard from
	// (Ping or any call) to count as alive when a deadline expires; an
	// alive straggler buys the barrier one deadline extension. Zero
	// defaults to Deadline. Ignored without a Deadline.
	HeartbeatGrace time.Duration
	// Async switches the coordinator to buffered-async aggregation
	// (fl.SetAsync): Aggregate calls return immediately with the current
	// global instead of blocking on a round barrier, and the server
	// applies a staleness-weighted global every Async.K contributions.
	// The zero value keeps synchronous barriers. Note that over a real
	// network the arrival order is wall-clock — the bit-level
	// seed-determinism contract applies to the netem-driven emulation,
	// not this transport.
	Async fl.AsyncConfig
	// Fanout, when >= 2, switches the coordinator's collective to the
	// hierarchical fl.Tree: leaf-aggregator relays reserve aligned id
	// blocks (JoinArgs.BlockSize) and submit one partial per collective
	// (SubmitPartial), so root work is O(fanout) rather than
	// O(participants). Direct clients still work (mixed trees are fine),
	// with the same idempotent resubmission as in flat mode. Incompatible
	// with Async. Zero keeps the flat fl.Server.
	Fanout int
	// Compress selects the compression chain for collective replies, as a
	// codec chain spec ("topk,q4,rans" — see codec.Parse). The decode side
	// needs no configuration (payloads are self-describing), so a
	// coordinator accepts chain-encoded uploads regardless; Compress only
	// governs what the coordinator ships downlink. Empty keeps the default
	// vector codec, byte-identical to every pre-chain deployment. Relay
	// partials (SubmitPartial) are never chain-encoded — they are raw
	// float64 intermediates of the canonical fold.
	Compress string
	// CompressSeed seeds the chain's stochastic stages. Every party of a
	// run (coordinator and clients) must share it for the run to reproduce
	// the in-process engine bit-for-bit; decoding works regardless.
	CompressSeed int64
}

// aggKey identifies one collective for the reply-encoding cache.
type aggKey struct {
	round int
	kind  string
}

// Coordinator is the TCP-facing aggregation service.
type Coordinator struct {
	mu         sync.Mutex
	cfg        Config
	numClients int
	modelSize  int
	nextID     int
	allIDs     []int
	begun      map[int]bool
	// replyEnc caches each collective's encoded mean so N waiters ship the
	// same bytes instead of paying N encodes. Entries are plain allocations
	// (not pooled buffers): a reply to an evicted straggler can still be
	// draining through net/rpc when the entry ages out two rounds later, so
	// reclamation is left to the GC. Guarded by mu.
	replyEnc map[aggKey][]byte

	// hbMu guards lastSeen alone. It is never held while calling into coll,
	// and coll's deadline expiry calls alive() while holding its own lock —
	// a shared mutex here would invert the lock order and deadlock.
	hbMu     sync.Mutex
	lastSeen map[int]time.Time

	counters *trace.Counters
	// chain is the parsed Compress spec (nil for the default wire).
	chain *codec.Chain
	// coll is the collective: flat, or the aligned-block tree Config.Fanout
	// selects — one state machine either way (fl.Server is fl.Tree with a
	// single spanning leaf).
	coll *fl.Tree
	// blockOf maps every id of a relay-reserved block to the block's base
	// id, for heartbeat attribution (a relay's Ping keeps its whole block
	// alive). Guarded by mu.
	blockOf map[int]int
}

// NewCoordinator constructs a coordinator expecting numClients clients
// training a model of modelSize scalar parameters, with fault tolerance
// disabled (blocking barriers).
func NewCoordinator(numClients, modelSize int) (*Coordinator, error) {
	return NewCoordinatorWith(Config{NumClients: numClients, ModelSize: modelSize})
}

// NewCoordinatorWith constructs a coordinator from an explicit Config.
func NewCoordinatorWith(cfg Config) (*Coordinator, error) {
	if cfg.NumClients <= 0 {
		return nil, fmt.Errorf("flrpc: numClients = %d", cfg.NumClients)
	}
	if cfg.HeartbeatGrace <= 0 {
		cfg.HeartbeatGrace = cfg.Deadline
	}
	c := &Coordinator{
		cfg:        cfg,
		numClients: cfg.NumClients,
		modelSize:  cfg.ModelSize,
		begun:      map[int]bool{},
		replyEnc:   map[aggKey][]byte{},
		lastSeen:   map[int]time.Time{},
		counters:   trace.NewCounters(),
		blockOf:    map[int]int{},
	}
	if cfg.Compress != "" {
		chain, err := codec.Parse(cfg.Compress, cfg.CompressSeed)
		if err != nil {
			return nil, fmt.Errorf("flrpc: %w", err)
		}
		if !chain.IsDefault() {
			c.chain = chain
		}
	}
	if cfg.Fanout >= 2 {
		if cfg.Async.Enabled() {
			return nil, fmt.Errorf("flrpc: tree mode (Fanout %d) is synchronous-only; async is a flat-server feature", cfg.Fanout)
		}
		c.coll = fl.NewTree(cfg.Fanout)
	} else {
		c.coll = fl.NewServer(cfg.NumClients)
	}
	// Resubmission after a client or relay reconnect must be benign, not a
	// double-submit error.
	c.coll.SetIdempotent(true)
	if cfg.Deadline > 0 {
		c.coll.SetDeadline(cfg.Deadline)
		c.coll.SetAliveProbe(c.alive)
	}
	if cfg.Async.Enabled() {
		if err := c.coll.SetAsync(cfg.Async); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// AsyncVersion returns the number of async global applications (zero in
// synchronous mode).
func (c *Coordinator) AsyncVersion() int { return c.coll.AsyncVersion() }

// StaleDropCount returns contributions dropped for exceeding MaxStaleness.
func (c *Coordinator) StaleDropCount() int { return c.coll.StaleDropCount() }

// TierStats returns the collective's per-tier telemetry (a single tier and
// no forwarded partials in flat mode).
func (c *Coordinator) TierStats() fl.TierStats { return c.coll.Stats() }

// alive reports whether a client was heard from within the heartbeat
// grace window; consulted by the server when a barrier deadline expires.
// A relay's heartbeat speaks for every member of its block.
func (c *Coordinator) alive(clientID int) bool {
	c.mu.Lock()
	base, blocked := c.blockOf[clientID]
	c.mu.Unlock()
	c.hbMu.Lock()
	last, ok := c.lastSeen[clientID]
	if blocked {
		if bl, bok := c.lastSeen[base]; bok && (!ok || bl.After(last)) {
			last, ok = bl, true
		}
	}
	c.hbMu.Unlock()
	return ok && time.Since(last) <= c.cfg.HeartbeatGrace
}

// heard records a liveness signal from a client.
func (c *Coordinator) heard(clientID int) {
	c.hbMu.Lock()
	c.lastSeen[clientID] = time.Now()
	c.hbMu.Unlock()
}

// Counters exposes the coordinator's operational counters (rejoins,
// heartbeats received, and agg_rx_bytes / agg_tx_bytes — the encoded
// payload bytes received from and served to clients).
func (c *Coordinator) Counters() *trace.Counters { return c.counters }

// Evicted returns the ids evicted so far, ascending.
func (c *Coordinator) Evicted() []int { return c.coll.Evicted() }

// EvictionCount returns the cumulative number of deadline evictions.
func (c *Coordinator) EvictionCount() int { return c.coll.EvictionCount() }

// Join implements the session handshake, including rejoin-by-id after a
// client reconnects and block reservation for leaf-aggregator relays.
func (c *Coordinator) Join(args JoinArgs, reply *JoinReply) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if args.Rejoin {
		if args.ClientID < 0 || args.ClientID >= c.nextID {
			return fmt.Errorf("flrpc: rejoin of unknown client %d", args.ClientID)
		}
		c.coll.Readmit(args.ClientID)
		c.counters.Inc("rejoins")
		c.heard(args.ClientID)
		*reply = JoinReply{ClientID: args.ClientID, NumClients: c.numClients, ModelSize: c.modelSize}
		return nil
	}
	span := 1
	if args.BlockSize > 0 {
		fanout := c.coll.Fanout()
		if fanout == 0 {
			return fmt.Errorf("flrpc: block join against a flat coordinator (no Fanout configured)")
		}
		if c.nextID%fanout != 0 {
			return fmt.Errorf("flrpc: block join at id %d is not aligned to fanout %d (join relays before direct clients)", c.nextID, fanout)
		}
		if args.BlockSize > fanout {
			return fmt.Errorf("flrpc: block of %d exceeds fanout %d", args.BlockSize, fanout)
		}
		span = args.BlockSize
	}
	if c.nextID+span > c.numClients {
		return fmt.Errorf("flrpc: session full (%d clients)", c.numClients)
	}
	id := c.nextID
	c.nextID += span
	for m := id; m < id+span; m++ {
		c.allIDs = append(c.allIDs, m)
		if args.BlockSize > 0 {
			c.blockOf[m] = id
		}
	}
	c.heard(id)
	*reply = JoinReply{ClientID: id, NumClients: c.numClients, ModelSize: c.modelSize}
	return nil
}

// Ping implements the heartbeat: it only refreshes the client's liveness
// timestamp, letting a deadline-expired barrier tell slow from dead.
func (c *Coordinator) Ping(args PingArgs, reply *PingReply) error {
	c.mu.Lock()
	known := args.ClientID >= 0 && args.ClientID < c.nextID
	c.mu.Unlock()
	if !known {
		return fmt.Errorf("flrpc: ping from unknown client %d", args.ClientID)
	}
	c.counters.Inc("heartbeats")
	c.heard(args.ClientID)
	return nil
}

// beginRoundLocked lazily opens a round's collectives on the round's
// first submission. All connected clients participate in the
// real-network mode; stragglers are governed by actual wall-clock, not
// emulation. The roster and quorum are the ids that actually joined — a
// session started below its -clients capacity must not barrier on
// phantom ids that never connected. Caller holds c.mu.
func (c *Coordinator) beginRoundLocked(round int) {
	if c.begun[round] || c.cfg.Async.Enabled() {
		return
	}
	ids := append([]int(nil), c.allIDs...)
	c.coll.SetRoster(ids)
	c.coll.BeginRound(round, ids)
	c.begun[round] = true
	delete(c.begun, round-2) // bounded bookkeeping
	for k := range c.replyEnc {
		if k.round <= round-2 {
			delete(c.replyEnc, k)
		}
	}
}

// Aggregate implements the blocking collective call.
func (c *Coordinator) Aggregate(args AggArgs, reply *AggReply) error {
	c.mu.Lock()
	if args.ClientID < 0 || args.ClientID >= c.nextID {
		c.mu.Unlock()
		return fmt.Errorf("flrpc: unknown client %d", args.ClientID)
	}
	c.beginRoundLocked(args.Round)
	c.mu.Unlock()
	c.heard(args.ClientID)
	c.counters.Add("agg_rx_bytes", int64(len(args.Payload)))

	// Decode the contribution into a pooled vector. The collective stages
	// submissions by reference and drops them when the barrier closes, and
	// this handler blocks inside the collective until exactly then, so the
	// buffer is recyclable once the dispatch below returns. modelSize bounds
	// the claimed vector length against hostile payloads.
	var vecBuf *[]float64
	if !args.Abstain {
		vecBuf = codec.GetVals(c.modelSize)
		defer codec.PutVals(vecBuf)
	}
	var dst []float64
	if vecBuf != nil {
		dst = *vecBuf
	}
	values, err := args.contribution(dst, c.modelSize)
	if err != nil {
		return fmt.Errorf("flrpc: client %d round %d: %w", args.ClientID, args.Round, err)
	}
	var res []float64
	// Route through the ctx-aware dispatchers (the ctxdispatch contract):
	// net/rpc hands the handler no context, but the dispatch helpers keep
	// this call on the same cancellation-capable path as every other
	// aggregation in the codebase.
	switch args.Kind {
	case "model":
		res, err = sparse.AggModel(context.Background(), c.coll, args.ClientID, args.Round, values)
	case "error":
		res, err = sparse.AggError(context.Background(), c.coll, args.ClientID, args.Round, values)
	default:
		return fmt.Errorf("flrpc: unknown collective kind %q", args.Kind)
	}
	if err != nil {
		return err
	}
	c.encodeReply(args.Round, args.Kind, res, reply)
	return nil
}

// encodeReply fills reply with the collective result, serving cached
// bytes when the result is round-stable.
func (c *Coordinator) encodeReply(round int, kind string, res []float64, reply *AggReply) {
	if res == nil {
		reply.Nil = true
		return
	}
	if c.cfg.Async.Enabled() {
		// No reply cache in async mode: the global evolves with every K-th
		// submission, so a (round, kind) key does not identify one stable
		// result the way a closed barrier's mean does.
		reply.Payload = c.encodeVector(res)
		c.counters.Add("agg_tx_bytes", int64(len(reply.Payload)))
		return
	}
	// Every waiter of the collective receives the same mean; encode it once
	// and serve the cached bytes. The double-checked pattern keeps the
	// O(model) encode outside the coordinator lock — a racing duplicate
	// encode is possible but bounded and byte-identical (chain encoding is
	// deterministic: the quantizer's rounding is a pure seeded hash).
	k := aggKey{round: round, kind: kind}
	c.mu.Lock()
	payload, ok := c.replyEnc[k]
	c.mu.Unlock()
	if !ok {
		payload = c.encodeVector(res)
		c.mu.Lock()
		if cached, dup := c.replyEnc[k]; dup {
			payload = cached
		} else {
			c.replyEnc[k] = payload
		}
		c.mu.Unlock()
	}
	reply.Payload = payload
	c.counters.Add("agg_tx_bytes", int64(len(payload)))
}

// encodeVector encodes a collective result with the configured chain's
// Reply variant (quantizers widened to 8 bits — the mean of K k-bit
// uploads needs the finer grid), or the default vector codec when no
// chain is configured. The returned slice is a plain allocation (never
// pooled): reply-cache entries outlive the handler.
func (c *Coordinator) encodeVector(res []float64) []byte {
	if c.chain != nil {
		return c.chain.Reply().AppendEncode(nil, res)
	}
	return sparse.EncodeVectorPayload(res)
}

// SubmitPartial implements the tier collective call: a leaf relay ships
// its block's already-folded (sum, weight) partial in place of the
// block's member submissions, and blocks until the round's global mean
// is published — which it then serves to its own clients. Tree mode
// only. The decode is allocation-bounded by the session's model size,
// and a resubmission after a relay reconnect is idempotent.
func (c *Coordinator) SubmitPartial(args PartialArgs, reply *AggReply) error {
	c.mu.Lock()
	// Only a tree coordinator hands out blocks (see Join), so a flat one
	// rejects every partial here.
	base, ok := c.blockOf[args.ClientID]
	if !ok || base != args.ClientID {
		c.mu.Unlock()
		return fmt.Errorf("flrpc: partial from %d, which is not a block base id", args.ClientID)
	}
	c.beginRoundLocked(args.Round)
	c.mu.Unlock()
	c.heard(args.ClientID)
	c.counters.Add("agg_rx_bytes", int64(len(args.Payload)))
	c.counters.Inc("partials_rx")

	// Decode into a pooled vector; the tree stages the sum by reference
	// and this handler blocks until the collective closes, so the buffer
	// is recyclable on return (the Aggregate ownership contract).
	vecBuf := codec.GetVals(c.modelSize)
	defer codec.PutVals(vecBuf)
	p, err := sparse.DecodePartialPayloadInto(*vecBuf, args.Payload, c.modelSize)
	if err != nil {
		return fmt.Errorf("flrpc: relay %d round %d: %w", args.ClientID, args.Round, err)
	}
	if p.RankLo != args.ClientID {
		return fmt.Errorf("flrpc: relay %d shipped a partial for rank %d; blocks are keyed by base id", args.ClientID, p.RankLo)
	}
	if args.Kind != "model" && args.Kind != "error" {
		return fmt.Errorf("flrpc: unknown collective kind %q", args.Kind)
	}
	c.counters.Add("relay_traffic_bytes", p.Traffic)
	res, err := c.coll.AggregatePartialCtx(context.Background(), args.Round, args.Kind, p.RankLo, p.Sum, p.Weight)
	if err != nil {
		return err
	}
	c.encodeReply(args.Round, args.Kind, res, reply)
	return nil
}

// Serve runs the coordinator on the listener until the listener closes.
// It returns the first accept error (net.ErrClosed after Close).
func Serve(l net.Listener, c *Coordinator) error {
	s := rpc.NewServer()
	if err := s.RegisterName(ServiceName, c); err != nil {
		return fmt.Errorf("flrpc: register: %w", err)
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		//lint:allow goleak -- idiomatic net/rpc accept loop: ServeConn exits when the peer disconnects, and Service.Close tears down the listener that feeds it
		go s.ServeConn(conn)
	}
}

// Service is a coordinator being served in the background. It embeds the
// listener (Addr, Close) and exposes the serve loop's terminal error so a
// server process can exit non-zero on an accept failure instead of
// silently stranding its clients.
type Service struct {
	net.Listener
	err  error
	done chan struct{}
}

// Done is closed when the serve loop has terminated; Err is valid after.
func (s *Service) Done() <-chan struct{} { return s.done }

// Err returns the serve loop's terminal error: nil while still serving,
// and nil after a clean shutdown (listener closed).
func (s *Service) Err() error {
	select {
	case <-s.done:
		return s.err
	default:
		return nil
	}
}

// Listen starts a coordinator on addr and serves it in a background
// goroutine, returning the running service (close it to stop).
func Listen(addr string, c *Coordinator) (*Service, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("flrpc: listen %s: %w", addr, err)
	}
	svc := &Service{Listener: l, done: make(chan struct{})}
	go func() {
		err := Serve(l, c)
		if errors.Is(err, net.ErrClosed) {
			err = nil // clean shutdown
		}
		if err != nil {
			// The coordinator is a long-lived background service; an accept
			// failure other than shutdown leaves clients hanging, so it is
			// surfaced loudly and exposed via Err.
			log.Printf("flrpc: serve: %v", err)
		}
		svc.err = err
		close(svc.done)
	}()
	return svc, nil
}
