// Package flrpc provides the real-network deployment mode of the federated
// engine: a TCP coordinator exposing the aggregation collectives over a
// small framed transport (frame.go), and a client-side sparse.Aggregator
// that calls into it. It plays the role RPyC plays in the paper's Python
// implementation.
//
// The parameter vectors travel as sparse vector-codec payloads
// (sparse.AppendVectorPayload): a self-describing bitmap/index body over the
// nonzero entries with float32 values — the paper's 32-bit traffic model.
// Each payload moves once per hop: written to the socket straight from the
// pooled buffer it was encoded into, read from the socket straight into a
// pooled buffer sized from the frame's length prefix, and released as soon
// as it is decoded (into a pooled vector on the coordinator), so a
// steady-state collective round allocates nothing per message; the
// coordinator additionally encodes each collective's reply exactly once and
// serves the cached bytes to every waiter.
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
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"fedsu/internal/fl"
	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
	"fedsu/internal/trace"
)

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

// AggArgs is one collective submission.
type AggArgs struct {
	ClientID int
	Round    int
	// Kind selects the collective: "model" or "error".
	Kind string
	// Payload is the contribution encoded with the sparse vector codec
	// (sparse.AppendVectorPayload). Abstain — a header flag, not an empty
	// Payload — is the wire truth for abstention; every real contribution,
	// the zero-length one included, encodes to a non-empty payload.
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
	// sparse vector codec; Nil (a header flag) reports that no client
	// contributed.
	Payload []byte
	Nil     bool
}

// contribution decodes the collective result with the same ambiguity
// resolved in the reply direction: Nil is the truth for "no contributors",
// and a non-nil-but-empty mean decodes back to empty but non-nil. dst
// follows sparse.DecodeVectorPayloadInto.
func (r AggReply) contribution(dst []float64, maxParams int) ([]float64, error) {
	if r.Nil {
		return nil, nil
	}
	return sparse.DecodeVectorPayloadInto(dst, r.Payload, maxParams)
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

// replyEntry is one collective's encoded mean. Whoever inserts the entry
// encodes, then closes ready; every other waiter blocks on ready, not on the
// coordinator lock. A nil payload records that no client contributed.
type replyEntry struct {
	ready   chan struct{}
	payload []byte
}

// Coordinator is the TCP-facing aggregation service.
type Coordinator struct {
	mu         sync.Mutex
	cfg        Config
	numClients int
	modelSize  int
	nextID     int
	allIDs     []int
	// latest is the round most recently opened on the collective, and
	// waiting the handlers currently inside it: while there are any, a
	// submission for an older round is answered without the collective
	// (see enter).
	latest  int
	waiting int
	// replyEnc caches each collective's encoded mean so N waiters ship the
	// same bytes instead of paying N encodes. Entries are plain allocations
	// (not pooled buffers): they outlive the handlers that made them — a
	// late duplicate is served from here up to two rounds later — so
	// reclamation is left to the GC. Guarded by mu.
	replyEnc map[aggKey]*replyEntry

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
		latest:     math.MinInt,
		replyEnc:   map[aggKey]*replyEntry{},
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
			return fmt.Errorf("flrpc: rejoin of %w %d", ErrUnknownClient, args.ClientID)
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
		return fmt.Errorf("flrpc: %w (%d clients)", ErrSessionFull, c.numClients)
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

// ping is the heartbeat: it only refreshes the client's liveness
// timestamp, letting a deadline-expired barrier tell slow from dead.
func (c *Coordinator) ping(clientID int) error {
	if !c.known(clientID, false) {
		return fmt.Errorf("flrpc: ping from %w %d", ErrUnknownClient, clientID)
	}
	c.counters.Inc("heartbeats")
	c.heard(clientID)
	return nil
}

// known reports whether id was assigned by a Join — as the base of a
// relay's block, when asBlock is set. Only a tree coordinator hands out
// blocks (see Join), so a flat one knows none.
func (c *Coordinator) known(id int, asBlock bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if base, ok := c.blockOf[id]; asBlock {
		return ok && base == id
	}
	return id >= 0 && id < c.nextID
}

// enter admits a submission to its round's collectives, opening the round
// on its first submission, and returns nil; the caller dispatches into the
// collective and then calls leave. All connected clients participate in the
// real-network mode; stragglers are governed by actual wall-clock, not
// emulation. The roster and quorum are the ids that actually joined — a
// session started below its -clients capacity must not barrier on phantom
// ids that never connected.
//
// Opening a round drops every collective in flight (fl.Tree.BeginRound), so
// a submission for a round the session has left — the retry of an
// evicted-then-rejoined client, a frame delayed across a reconnect — must
// not reopen it while a handler is inside a barrier. It is answered from
// the reply cache when its collective is still there, otherwise with
// ErrStaleRound; only with nothing in flight (a whole fleet resuming from a
// checkpoint) does an older round reopen, which also forgets the first
// pass's cached replies from that round on.
func (c *Coordinator) enter(clientID, round int, kind string) (*replyEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.cfg.Async.Enabled() && round != c.latest {
		if round < c.latest {
			if slices.Contains(c.coll.Evicted(), clientID) {
				return nil, &fl.EvictedError{ClientID: clientID}
			}
			if e := c.replyEnc[aggKey{round, kind}]; e != nil {
				return e, nil
			}
			if c.waiting > 0 {
				return nil, fmt.Errorf("flrpc: client %d round %d, session is at round %d: %w", clientID, round, c.latest, ErrStaleRound)
			}
		}
		ids := append([]int(nil), c.allIDs...)
		c.coll.SetRoster(ids)
		c.coll.BeginRound(round, ids)
		c.latest = round
		for k := range c.replyEnc {
			if k.round <= round-2 || k.round >= round {
				delete(c.replyEnc, k)
			}
		}
	}
	c.waiting++
	return nil, nil
}

// leave records that a handler admitted by enter is out of the collective.
func (c *Coordinator) leave() {
	c.mu.Lock()
	c.waiting--
	c.mu.Unlock()
}

// Aggregate implements the blocking collective call.
func (c *Coordinator) Aggregate(args AggArgs, reply *AggReply) error {
	return c.submit(context.Background(), false, args, nil, reply)
}

// submit runs one collective call under the calling connection's context:
// a member's upload, or (partial) the tier call of a leaf relay, which
// ships its block's already-folded (sum, weight) in place of the members'
// submissions — tree mode only — and blocks until the round's global mean
// is published, which it then serves to its own clients. A resubmission
// after a reconnect is idempotent in both. frame, when non-nil, is the
// pooled buffer args.Payload aliases: it is released once the payload is
// decoded, before the barrier wait.
func (c *Coordinator) submit(ctx context.Context, partial bool, args AggArgs, frame *[]byte, reply *AggReply) error {
	defer func() { codec.PutBuf(frame) }()
	if !c.known(args.ClientID, partial) {
		return fmt.Errorf("flrpc: %w %d (as a relay's block base: %v)", ErrUnknownClient, args.ClientID, partial)
	}
	if args.Kind != "model" && args.Kind != "error" {
		return fmt.Errorf("flrpc: %w %q", ErrUnknownKind, args.Kind)
	}
	c.heard(args.ClientID)
	c.counters.Add("agg_rx_bytes", int64(len(args.Payload)))

	// Decode into a pooled vector. The collective stages submissions by
	// reference and drops them when the barrier closes, and this handler
	// blocks inside the collective until exactly then, so the vector is
	// recyclable once the dispatch below returns. modelSize bounds the
	// claimed length against hostile payloads.
	var dst, values []float64
	if !args.Abstain {
		vecBuf := codec.GetVals(c.modelSize)
		defer codec.PutVals(vecBuf)
		dst = *vecBuf
	}
	var p sparse.Partial
	var err error
	if partial {
		c.counters.Inc("partials_rx")
		if p, err = sparse.DecodePartialPayloadInto(dst, args.Payload, c.modelSize); err == nil && p.RankLo != args.ClientID {
			err = fmt.Errorf("partial is for rank %d; blocks are keyed by base id", p.RankLo)
		}
	} else {
		values, err = args.contribution(dst, c.modelSize)
	}
	codec.PutBuf(frame)
	frame = nil
	if err != nil {
		return fmt.Errorf("flrpc: client %d round %d: %w: %w", args.ClientID, args.Round, ErrMalformed, err)
	}
	cached, err := c.enter(args.ClientID, args.Round, args.Kind)
	if cached != nil || err != nil {
		c.serveCached(cached, reply)
		return err
	}
	c.counters.Add("relay_traffic_bytes", p.Traffic)
	// Members route through the ctx-aware dispatchers (the ctxdispatch
	// contract); ctx is the connection's, so a dead peer's wait detaches.
	// This handler reads the mean only to encode the reply, so it waits as a
	// counted reader and the mean's buffer can return to the pool.
	var hold fl.Hold
	defer hold.Release()
	ctx = fl.WithHold(ctx, &hold)
	var res []float64
	switch {
	case partial:
		res, err = c.coll.AggregatePartialCtx(ctx, args.Round, args.Kind, p.RankLo, p.Sum, p.Weight)
	case args.Kind == "model":
		res, err = sparse.AggModel(ctx, c.coll, args.ClientID, args.Round, values)
	default:
		res, err = sparse.AggError(ctx, c.coll, args.ClientID, args.Round, values)
	}
	c.leave()
	if err != nil {
		return err
	}
	c.encodeReply(args.Round, args.Kind, res, reply)
	return nil
}

// serveCached answers from a reply-cache entry once it is encoded; a nil
// entry (the submission was refused) leaves reply alone.
func (c *Coordinator) serveCached(e *replyEntry, reply *AggReply) {
	if e == nil {
		return
	}
	<-e.ready
	reply.Payload, reply.Nil = e.payload, e.payload == nil
	c.counters.Add("agg_tx_bytes", int64(len(e.payload)))
}

// encodeReply fills reply with the collective result. Every waiter of a
// barrier receives the same mean: the first to arrive inserts the cache
// entry and encodes — outside the coordinator lock — and the rest wait on
// the entry, so a collective is encoded exactly once.
func (c *Coordinator) encodeReply(round int, kind string, res []float64, reply *AggReply) {
	if c.cfg.Async.Enabled() {
		// No reply cache in async mode: the global evolves with every K-th
		// submission, so a (round, kind) key does not identify one stable
		// result the way a closed barrier's mean does.
		if reply.Nil = res == nil; !reply.Nil {
			reply.Payload = c.encodeVector(res)
			c.counters.Add("agg_tx_bytes", int64(len(reply.Payload)))
		}
		return
	}
	k := aggKey{round: round, kind: kind}
	c.mu.Lock()
	e, ok := c.replyEnc[k]
	if !ok {
		e = &replyEntry{ready: make(chan struct{})}
		c.replyEnc[k] = e
	}
	c.mu.Unlock()
	if !ok {
		if res != nil {
			e.payload = c.encodeVector(res)
		}
		close(e.ready)
	}
	c.serveCached(e, reply)
}

// encodeVector encodes a collective result with the configured chain's
// Reply variant (quantizers widened to 8 bits — the mean of K k-bit
// uploads needs the finer grid), or the default vector codec when no
// chain is configured: into dense capacity, which lets the encoder work in
// one pass instead of sizing the vector first. The returned slice is a plain
// allocation (never pooled): reply-cache entries outlive the handler, and a
// responder to a stale retry may still be writing one after enter dropped it.
func (c *Coordinator) encodeVector(res []float64) []byte {
	if c.chain != nil {
		return c.chain.Reply().AppendEncode(nil, res)
	}
	return sparse.AppendVectorPayload(make([]byte, 0, codec.DenseBaseSize(len(res))), res)
}

// serveConn runs one connection until it fails, the peer hangs up or
// parent ends: the read loop takes frames, answers Join and Ping itself and
// hands each collective call to its own goroutine, so a Ping overtakes a
// blocked Aggregate. Handlers run under the connection's context: when the
// loop ends their barrier waits detach, and serveConn returns once they
// have.
func (c *Coordinator) serveConn(parent context.Context, nc net.Conn) {
	ctx, cancel := context.WithCancel(parent)
	stop := context.AfterFunc(parent, func() { nc.Close() }) // Serve shutting down ends the read loop
	defer stop()
	cn := newConn(nc)
	var handlers sync.WaitGroup
	defer func() {
		cancel()
		nc.Close()
		handlers.Wait()
	}()
	slots := make(chan struct{}, maxInFlight)
	for {
		req, err := cn.readFrame()
		if err != nil {
			if errors.Is(err, ErrMalformed) {
				// Over the limit: nothing was read past the header, so say
				// why before hanging up.
				_ = cn.respond(ctx, &req, 0, req.id, nil, err)
			}
			return
		}
		id, body := req.id, []byte(nil)
		switch joined := cn.limit.Load() != preJoinLimit; { // a successful join lifts the limit
		case req.typ == typeJoin:
			var reply JoinReply
			if err = c.join(&req, &reply); err == nil {
				cn.limit.Store(int64(frameLimit(c.modelSize)))
				body = binary.LittleEndian.AppendUint32(body, uint32(reply.NumClients))
				body = binary.LittleEndian.AppendUint32(body, uint32(reply.ModelSize))
			}
			id = reply.ClientID
		case joined && req.typ == typePing:
			err = c.ping(req.id)
		case joined && (req.typ == typeAggregate || req.typ == typePartial):
			slots <- struct{}{}
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				defer func() { <-slots }()
				c.serveAgg(ctx, cn, &req)
			}()
			continue
		default:
			err = fmt.Errorf("flrpc: frame type %d unknown, or sent before join: %w", req.typ, ErrMalformed)
		}
		req.release()
		if cn.respond(ctx, &req, 0, id, body, err) != nil {
			return
		}
	}
}

// join decodes the first frame of a connection — magic, version, block
// size, name — and runs the handshake.
func (c *Coordinator) join(req *frame, reply *JoinReply) error {
	var hello [9]byte
	le := binary.LittleEndian
	if n := copy(hello[:], req.payload); n < len(hello) || le.Uint32(hello[:]) != protoMagic || hello[4] != protoVersion {
		return fmt.Errorf("flrpc: join: peer speaks %#x version %d, this coordinator speaks %#x version %d: %w",
			le.Uint32(hello[:]), hello[4], uint32(protoMagic), protoVersion, ErrVersion)
	}
	return c.Join(JoinArgs{
		Name: string(req.payload[len(hello):]), Rejoin: req.flags&flagRejoin != 0,
		ClientID: req.id, BlockSize: int(le.Uint32(hello[5:])),
	}, reply)
}

// serveAgg runs one collective call and writes its reply; a failed write
// leaves the stream mid-frame, so it ends the connection.
func (c *Coordinator) serveAgg(ctx context.Context, cn *conn, req *frame) {
	args := AggArgs{ClientID: req.id, Round: req.round, Payload: req.payload, Abstain: req.flags&flagAbstain != 0}
	if int(req.kind) < len(kindNames) {
		args.Kind = kindNames[req.kind]
	}
	var reply AggReply
	err := c.submit(ctx, req.typ == typePartial, args, req.buf, &reply)
	var flags byte
	if reply.Nil {
		flags = flagNil
	}
	if cn.respond(ctx, req, flags, req.id, reply.Payload, err) != nil {
		cn.nc.Close()
	}
}

// Serve runs the coordinator on the listener until the listener closes,
// then closes the connections it accepted and waits for their goroutines.
// It returns the first accept error (net.ErrClosed after Close).
func Serve(l net.Listener, c *Coordinator) error {
	ctx, cancel := context.WithCancel(context.Background())
	var conns sync.WaitGroup
	for {
		nc, err := l.Accept()
		if err != nil {
			cancel()
			conns.Wait()
			return err
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			c.serveConn(ctx, nc)
		}()
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
