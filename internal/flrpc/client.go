package flrpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
	"fedsu/internal/trace"
)

// DialConfig tunes the client's fault-tolerance behaviour. The zero value
// of every field selects a sensible default.
type DialConfig struct {
	// Name is a human-readable client label (diagnostics only).
	Name string
	// MaxRetries is how many times a collective call is retried after a
	// transport failure (reconnecting and rejoining in between) before the
	// error is surfaced. Default 4. Negative disables retries.
	MaxRetries int
	// RetryBase is the first backoff interval; it doubles per retry (with
	// jitter) up to RetryMax. Defaults 100ms and 3s.
	RetryBase, RetryMax time.Duration
	// DialTimeout bounds each TCP connect. Default 5s.
	DialTimeout time.Duration
	// Heartbeat, when positive, sends a Ping on that interval so the
	// coordinator can tell a slow client from a dead one. Zero disables
	// heartbeats.
	Heartbeat time.Duration
	// BlockSize, when positive, joins as a leaf-aggregator relay: the
	// coordinator reserves a contiguous aligned block of that many ids
	// and ClientID() is the block's base. Requires a tree-mode
	// coordinator; collectives are then submitted with SubmitPartial
	// rather than per-member Aggregate calls.
	BlockSize int
	// Compress selects the compression chain for uploads, as a codec chain
	// spec ("topk,q4,rans"); it must match the session's negotiated chain
	// (the coordinator decodes any chain payload, but a run only
	// reproduces the in-process engine when every party encodes with the
	// same chain and seed). Empty keeps the default vector codec. Relay
	// partials (SubmitPartial) are never chain-encoded.
	Compress string
	// CompressSeed seeds the chain's stochastic stages; share it with the
	// coordinator's Config.CompressSeed.
	CompressSeed int64
}

func (c *DialConfig) fillDefaults() {
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 3 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
}

// Client is the client-side handle: a sparse.Aggregator backed by TCP,
// with retry + exponential backoff + jitter and transparent
// reconnect-and-rejoin on transport failures. It also implements
// sparse.ContextAggregator, so strategies can abort a blocked collective
// through context cancellation.
type Client struct {
	// collective is call, bound at construction: it implements
	// sparse.Aggregator and sparse.ContextAggregator over the wire.
	collective

	addr     string
	cfg      DialConfig
	counters *trace.Counters
	// chain is the parsed Compress spec (nil for the default wire).
	chain *codec.Chain

	mu      sync.Mutex
	rpc     *conn
	dialing chan struct{} // non-nil while a dial attempt is in flight; closed when it settles
	joined  bool
	closed  bool
	id      int
	size    int
	n       int

	hbStop chan struct{}
	hbDone chan struct{}
}

// collective embeds sparse.Collective without exporting the field.
type collective = sparse.Collective

var (
	_ sparse.Aggregator        = (*Client)(nil)
	_ sparse.ContextAggregator = (*Client)(nil)
	_ sparse.LegAggregator     = (*Client)(nil)
)

// Dial connects to a coordinator and joins the session with default
// fault-tolerance settings and no heartbeat.
func Dial(addr, name string) (*Client, error) {
	return DialWith(addr, DialConfig{Name: name})
}

// DialWith connects to a coordinator with explicit fault-tolerance
// settings. The initial dial and join fail fast (no retry): a wrong
// address or a full session should surface immediately.
func DialWith(addr string, cfg DialConfig) (*Client, error) {
	cfg.fillDefaults()
	c := &Client{addr: addr, cfg: cfg, counters: trace.NewCounters()}
	c.collective = c.call
	if cfg.Compress != "" {
		chain, err := codec.Parse(cfg.Compress, cfg.CompressSeed)
		if err != nil {
			return nil, fmt.Errorf("flrpc: %w", err)
		}
		if !chain.IsDefault() {
			c.chain = chain
		}
	}
	if _, err := c.ensureConn(); err != nil {
		return nil, err
	}
	if cfg.Heartbeat > 0 {
		c.hbStop = make(chan struct{})
		c.hbDone = make(chan struct{})
		go c.heartbeatLoop()
	}
	return c, nil
}

// ensureConn returns the live connection, dialing and (re)joining first if
// the previous one was lost. The dial and join handshake run with no lock
// held — Close and invalidate must never block behind network I/O for the
// full dial timeout — so concurrent callers coordinate through a
// single-flight channel: the first caller in dials while the rest wait for
// the attempt to settle, then re-check the installed connection.
func (c *Client) ensureConn() (*conn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, fmt.Errorf("flrpc: client closed")
		}
		if c.rpc != nil {
			rc := c.rpc
			c.mu.Unlock()
			return rc, nil
		}
		if c.dialing != nil {
			settled := c.dialing
			c.mu.Unlock()
			<-settled
			continue
		}
		settled := make(chan struct{})
		c.dialing = settled
		joined, id := c.joined, c.id
		c.mu.Unlock()

		rc, reply, err := c.dialAndJoin(joined, id)

		c.mu.Lock()
		c.dialing = nil
		close(settled)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		if c.closed {
			c.mu.Unlock()
			rc.Close()
			return nil, fmt.Errorf("flrpc: client closed")
		}
		c.rpc = rc
		c.id, c.size, c.n = reply.ClientID, reply.ModelSize, reply.NumClients
		c.joined = true
		c.mu.Unlock()
		return rc, nil
	}
}

// dialAndJoin performs one connection attempt — TCP dial, then the Join
// (or Rejoin) handshake, whose first frame carries the protocol's magic and
// version — holding no locks. addr, cfg, and counters are immutable after
// construction, so they are safe to read here.
func (c *Client) dialAndJoin(joined bool, id int) (*conn, JoinReply, error) {
	var reply JoinReply
	nc, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, reply, fmt.Errorf("flrpc: dial %s: %w", c.addr, err)
	}
	rc := newConn(nc)
	rc.startClient()
	req, block := frame{typ: typeJoin}, c.cfg.BlockSize
	if joined {
		// Rejoin re-admits the already-reserved id (or block base).
		req.flags, req.id, block = flagRejoin, id, 0
		c.counters.Inc("reconnects")
	}
	le := binary.LittleEndian
	hello := append(le.AppendUint32(nil, protoMagic), protoVersion)
	req.payload = append(le.AppendUint32(hello, uint32(block)), c.cfg.Name...)
	rep, err := rc.roundTrip(context.Background(), &req)
	if err == nil && len(rep.payload) != 8 {
		err = fmt.Errorf("%d-byte reply: %w", len(rep.payload), ErrMalformed)
	}
	if err != nil {
		rc.Close()
		return nil, reply, fmt.Errorf("flrpc: join: %w", err)
	}
	reply = JoinReply{ClientID: rep.id, NumClients: int(le.Uint32(rep.payload)), ModelSize: int(le.Uint32(rep.payload[4:]))}
	rep.release()
	if joined && reply.ClientID != id {
		rc.Close()
		return nil, reply, fmt.Errorf("flrpc: rejoined as client %d, was %d", reply.ClientID, id)
	}
	rc.limit.Store(int64(frameLimit(reply.ModelSize)))
	return rc, reply, nil
}

// invalidate discards rc (closing it) if it is still the current
// connection, so the next call reconnects.
func (c *Client) invalidate(rc *conn) {
	c.mu.Lock()
	if c.rpc == rc {
		c.rpc = nil
	}
	c.mu.Unlock()
	rc.Close()
}

// heartbeatLoop pings the coordinator on the configured interval until
// Close, reconnecting through the shared ensureConn path on failure.
func (c *Client) heartbeatLoop() {
	defer close(c.hbDone)
	t := time.NewTicker(c.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-t.C:
			rc, err := c.ensureConn()
			if err != nil {
				c.counters.Inc("heartbeat_failures")
				continue
			}
			if _, err := rc.roundTrip(context.Background(), &frame{typ: typePing, id: c.ClientID()}); err != nil {
				c.counters.Inc("heartbeat_failures")
				if app := (*remoteError)(nil); !errors.As(err, &app) {
					c.invalidate(rc)
				}
			}
		}
	}
}

// ClientID returns the coordinator-assigned id.
func (c *Client) ClientID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.id
}

// NumClients returns the session size.
func (c *Client) NumClients() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// ModelSize returns the expected parameter-vector length.
func (c *Client) ModelSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Counters exposes the client's operational counters (retries,
// reconnects, heartbeat_failures, and agg_tx_bytes / agg_rx_bytes — the
// encoded payload bytes shipped and received, retransmissions not
// double-counted).
func (c *Client) Counters() *trace.Counters { return c.counters }

// Close releases the connection and stops the heartbeat.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	rc := c.rpc
	c.rpc = nil
	hbStop := c.hbStop
	c.mu.Unlock()
	if hbStop != nil {
		close(hbStop)
		<-c.hbDone
	}
	if rc != nil {
		return rc.Close()
	}
	return nil
}

// ConcurrentLegs implements sparse.LegAggregator: calls are multiplexed over
// the one connection, each waiting for its own reply.
func (c *Client) ConcurrentLegs() bool { return true }

// call submits to a collective, retrying transport failures with
// exponential backoff + jitter and transparent reconnect-and-rejoin.
// Application-level errors (eviction, unknown kind, length mismatch) are
// terminal: retrying them cannot succeed.
func (c *Client) call(ctx context.Context, leg sparse.Leg, clientID, round int, values []float64) ([]float64, error) {
	req := frame{typ: typeAggregate, flags: flagAbstain, kind: kindOf(leg), id: clientID, round: round}
	r := sparse.ReceiptFrom(ctx)
	if r == nil {
		r = &sparse.Receipt{} // a direct Aggregate* call: filled and dropped
	}
	if values != nil {
		// Encode into a pooled buffer sized by the dense upper bound (the
		// default encoder scans the vector once, not twice; the chain's
		// buffer comes back from the pool class it ends in). The chain encode
		// also yields the upload's wire image when the strategy asked for it.
		// Every attempt writes the frame from this buffer before it returns
		// (even via ctx), so the buffer is recyclable when this call exits,
		// retries included.
		var wireBuf *[]byte
		if c.chain != nil {
			wireBuf = codec.GetBuf(c.chain.DensePayloadSize(len(values)))
			*wireBuf, _ = c.chain.AppendEncodeImage((*wireBuf)[:0], values, r.Image)
		} else {
			wireBuf = codec.GetBuf(codec.DenseBaseSize(len(values)))
			*wireBuf = sparse.AppendVectorPayload(*wireBuf, values)
		}
		defer codec.PutBuf(wireBuf)
		req.flags, req.payload = 0, *wireBuf
		c.counters.Add("agg_tx_bytes", int64(len(req.payload)))
	}
	out, down, err := c.doAgg(ctx, leg, &req, r.Dst)
	if err != nil {
		return nil, err
	}
	// Report what was shipped to the calling strategy.
	r.UpBytes = sparse.HeaderBytes + len(req.payload)
	r.DownBytes = sparse.HeaderBytes + down
	r.Owned = true // doAgg decoded the reply for this caller alone
	return out, nil
}

// SubmitPartial ships an already-folded block partial to a tree-mode
// coordinator and returns the round's published global mean — the
// upstream half of a leaf-aggregator relay, with the same retry +
// backoff + reconnect treatment as Aggregate. The coordinator treats a
// resubmission after a reconnect idempotently, so a retried partial
// whose first copy landed is safe.
func (c *Client) SubmitPartial(ctx context.Context, round int, leg sparse.Leg, p sparse.Partial) ([]float64, error) {
	wireBuf := codec.GetBuf(sparse.PartialPayloadSize(len(p.Sum)))
	defer codec.PutBuf(wireBuf)
	*wireBuf = sparse.AppendPartialPayload(*wireBuf, p)
	req := frame{typ: typePartial, kind: kindOf(leg), id: c.ClientID(), round: round, payload: *wireBuf}
	c.counters.Add("agg_tx_bytes", int64(len(req.payload)))
	out, _, err := c.doAgg(ctx, leg, &req, nil)
	return out, err
}

// doAgg issues one blocking collective call with retry, exponential
// backoff + jitter, and transparent reconnect-and-rejoin on transport
// failures, and decodes the reply: the collective result (nil when the
// reply's flag says nobody contributed) and its payload length. The decode
// lands in dst — storage the calling strategy lent through its Receipt —
// when dst has the capacity, and in a fresh slice the caller may keep
// otherwise (a direct Aggregate* call, a relay's SubmitPartial); the pooled
// buffer the reply was read into is released here. Application-level errors
// (a *remoteError: eviction, stale round, unknown kind, malformed payload)
// are terminal: retrying them cannot succeed. Errors are labelled with the
// call (e.g. "aggregate model round 3"); the label is formatted only when
// there is an error to label.
func (c *Client) doAgg(ctx context.Context, leg sparse.Leg, req *frame, dst []float64) ([]float64, int, error) {
	backoff := c.cfg.RetryBase
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			c.counters.Inc("retries")
			if err := sleepCtx(ctx, jitter(backoff)); err != nil {
				return nil, 0, fmt.Errorf("flrpc: %s: %w", callLabel(leg, req), err)
			}
			backoff = min(2*backoff, c.cfg.RetryMax)
		}
		rc, err := c.ensureConn()
		if err != nil {
			lastErr = err
			continue
		}
		rep, err := rc.roundTrip(ctx, req)
		if err == nil {
			defer rep.release()
			n := len(rep.payload)
			c.counters.Add("agg_rx_bytes", int64(n))
			out, err := decodeVector(rep.flags&flagNil != 0, rep.payload, dst, c.ModelSize())
			if err != nil {
				return nil, 0, fmt.Errorf("flrpc: %s: %w", callLabel(leg, req), err)
			}
			return out, n, nil
		}
		if ctx.Err() != nil {
			return nil, 0, fmt.Errorf("flrpc: %s: %w", callLabel(leg, req), ctx.Err())
		}
		if app := (*remoteError)(nil); errors.As(err, &app) {
			return nil, 0, fmt.Errorf("flrpc: %s: %w", callLabel(leg, req), err)
		}
		// Transport failure: drop the connection and retry; the rejoin on
		// reconnect plus the coordinator's idempotent resubmission makes
		// the retried call safe even if the first submission landed.
		lastErr = err
		c.invalidate(rc)
	}
	return nil, 0, fmt.Errorf("flrpc: %s after %d retries: %w", callLabel(leg, req), c.cfg.MaxRetries, lastErr)
}

// callLabel names a collective call in an error: "aggregate model round 3",
// "partial error round 5".
func callLabel(leg sparse.Leg, req *frame) string {
	op := "aggregate"
	if req.typ == typePartial {
		op = "partial"
	}
	return fmt.Sprintf("%s %s round %d", op, leg, req.round)
}

// jitter spreads a backoff interval over [d/2, d) so a fleet knocked over
// by the same fault does not reconnect in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)))
}

// sleepCtx sleeps for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
