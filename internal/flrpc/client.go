package flrpc

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/rpc"
	"strings"
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
	addr     string
	cfg      DialConfig
	counters *trace.Counters
	// chain is the parsed Compress spec (nil for the default wire).
	chain *codec.Chain

	mu      sync.Mutex
	rpc     *rpc.Client
	dialing chan struct{} // non-nil while a dial attempt is in flight; closed when it settles
	joined  bool
	closed  bool
	id      int
	size    int
	n       int

	hbStop chan struct{}
	hbDone chan struct{}
}

var (
	_ sparse.Aggregator        = (*Client)(nil)
	_ sparse.ContextAggregator = (*Client)(nil)
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
func (c *Client) ensureConn() (*rpc.Client, error) {
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
// (or Rejoin) handshake — holding no locks. addr, cfg, and counters are
// immutable after construction, so they are safe to read here.
func (c *Client) dialAndJoin(joined bool, id int) (*rpc.Client, JoinReply, error) {
	var reply JoinReply
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, reply, fmt.Errorf("flrpc: dial %s: %w", c.addr, err)
	}
	rc := rpc.NewClient(conn)
	args := JoinArgs{Name: c.cfg.Name, BlockSize: c.cfg.BlockSize}
	if joined {
		args.Rejoin = true
		args.ClientID = id
		args.BlockSize = 0 // rejoin re-admits the already-reserved block base
		c.counters.Inc("reconnects")
	}
	if err := rc.Call(ServiceName+".Join", args, &reply); err != nil {
		rc.Close()
		return nil, reply, fmt.Errorf("flrpc: join: %w", err)
	}
	if joined && reply.ClientID != id {
		rc.Close()
		return nil, reply, fmt.Errorf("flrpc: rejoined as client %d, was %d", reply.ClientID, id)
	}
	return rc, reply, nil
}

// invalidate discards rc (closing it) if it is still the current
// connection, so the next call reconnects.
func (c *Client) invalidate(rc *rpc.Client) {
	c.mu.Lock()
	if c.rpc == rc {
		c.rpc = nil
	}
	c.mu.Unlock()
	rc.Close()
}

// do issues one RPC, honouring ctx cancellation while the call is in
// flight (the underlying connection keeps draining the reply).
func (c *Client) do(ctx context.Context, rc *rpc.Client, method string, args, reply any) error {
	call := rc.Go(method, args, reply, make(chan *rpc.Call, 1))
	select {
	case <-ctx.Done():
		return ctx.Err()
	case done := <-call.Done:
		return done.Error
	}
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
			var reply PingReply
			if err := rc.Call(ServiceName+".Ping", PingArgs{ClientID: c.ClientID()}, &reply); err != nil {
				c.counters.Inc("heartbeat_failures")
				if _, app := err.(rpc.ServerError); !app {
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

// AggregateModel implements sparse.Aggregator over the wire.
func (c *Client) AggregateModel(clientID, round int, values []float64) ([]float64, error) {
	return c.call(context.Background(), "model", clientID, round, values)
}

// AggregateError implements sparse.Aggregator over the wire.
func (c *Client) AggregateError(clientID, round int, values []float64) ([]float64, error) {
	return c.call(context.Background(), "error", clientID, round, values)
}

// AggregateModelCtx implements sparse.ContextAggregator.
func (c *Client) AggregateModelCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	return c.call(ctx, "model", clientID, round, values)
}

// AggregateErrorCtx implements sparse.ContextAggregator.
func (c *Client) AggregateErrorCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	return c.call(ctx, "error", clientID, round, values)
}

// call submits to a collective, retrying transport failures with
// exponential backoff + jitter and transparent reconnect-and-rejoin.
// Application-level errors (eviction, unknown kind, length mismatch) are
// terminal: retrying them cannot succeed.
func (c *Client) call(ctx context.Context, kind string, clientID, round int, values []float64) ([]float64, error) {
	args := AggArgs{ClientID: clientID, Round: round, Kind: kind, Abstain: values == nil}
	if values != nil {
		// Encode into a pooled buffer — sized by the dense upper bound on
		// the default wire (the encoder scans the vector once, not twice),
		// grown by the chain encoder otherwise.
		// net/rpc writes the request synchronously inside Go — by the time
		// any attempt returns (even via ctx), the bytes are on the wire — so
		// the buffer is recyclable when this call exits, retries included.
		if c.chain != nil {
			chainBuf := codec.GetBuf(64)
			defer codec.PutBuf(chainBuf)
			*chainBuf = c.chain.AppendEncode((*chainBuf)[:0], values)
			args.Payload = *chainBuf
		} else {
			wireBuf := codec.GetBuf(codec.DenseBaseSize(len(values)))
			defer codec.PutBuf(wireBuf)
			*wireBuf = sparse.AppendVectorPayload(*wireBuf, values)
			args.Payload = *wireBuf
		}
		c.counters.Add("agg_tx_bytes", int64(len(args.Payload)))
	}
	reply, err := c.doAgg(ctx, ServiceName+".Aggregate", fmt.Sprintf("aggregate %s round %d", kind, round), args)
	if err != nil {
		return nil, err
	}
	// contribution() decodes the vector payload; reply.Nil is the source
	// of truth for "no contributors". The decode allocates a fresh slice
	// on purpose: the result is handed to strategy code that retains it
	// across the round.
	out, derr := reply.contribution(c.ModelSize())
	if derr != nil {
		return nil, fmt.Errorf("flrpc: aggregate %s round %d: %w", kind, round, derr)
	}
	// Report what was shipped to the calling strategy, with the upload's
	// wire image — one decode of the bytes just sent — when it asked.
	if r := sparse.ReceiptFrom(ctx); r != nil {
		r.UpBytes = sparse.HeaderBytes + len(args.Payload)
		r.DownBytes = sparse.HeaderBytes + len(reply.Payload)
		if r.Image != nil && values != nil {
			if _, err := codec.DecodeInto(r.Image, args.Payload, len(values)); err != nil {
				return nil, fmt.Errorf("flrpc: aggregate %s round %d: upload image: %w", kind, round, err)
			}
		}
	}
	return out, nil
}

// SubmitPartial ships an already-folded block partial to a tree-mode
// coordinator and returns the round's published global mean — the
// upstream half of a leaf-aggregator relay, with the same retry +
// backoff + reconnect treatment as Aggregate. The coordinator treats a
// resubmission after a reconnect idempotently, so a retried partial
// whose first copy landed is safe.
func (c *Client) SubmitPartial(ctx context.Context, round int, kind string, p sparse.Partial) ([]float64, error) {
	wireBuf := codec.GetBuf(sparse.PartialPayloadSize(len(p.Sum)))
	defer codec.PutBuf(wireBuf)
	*wireBuf = sparse.AppendPartialPayload(*wireBuf, p)
	args := PartialArgs{ClientID: c.ClientID(), Round: round, Kind: kind, Payload: *wireBuf}
	c.counters.Add("agg_tx_bytes", int64(len(args.Payload)))
	reply, err := c.doAgg(ctx, ServiceName+".SubmitPartial", fmt.Sprintf("partial %s round %d", kind, round), args)
	if err != nil {
		return nil, err
	}
	out, derr := reply.contribution(c.ModelSize())
	if derr != nil {
		return nil, fmt.Errorf("flrpc: partial %s round %d: %w", kind, round, derr)
	}
	return out, nil
}

// doAgg issues one blocking collective RPC with retry, exponential
// backoff + jitter, and transparent reconnect-and-rejoin on transport
// failures. Application-level errors (eviction, unknown kind, length
// mismatch) are terminal: retrying them cannot succeed. desc labels
// errors (e.g. "aggregate model round 3").
func (c *Client) doAgg(ctx context.Context, method, desc string, args any) (AggReply, error) {
	backoff := c.cfg.RetryBase
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			c.counters.Inc("retries")
			if err := sleepCtx(ctx, jitter(backoff)); err != nil {
				return AggReply{}, fmt.Errorf("flrpc: %s: %w", desc, err)
			}
			backoff *= 2
			if backoff > c.cfg.RetryMax {
				backoff = c.cfg.RetryMax
			}
		}
		rc, err := c.ensureConn()
		if err != nil {
			lastErr = err
			continue
		}
		var reply AggReply
		err = c.do(ctx, rc, method, args, &reply)
		if err == nil {
			c.counters.Add("agg_rx_bytes", int64(len(reply.Payload)))
			return reply, nil
		}
		if ctx.Err() != nil {
			return AggReply{}, fmt.Errorf("flrpc: %s: %w", desc, ctx.Err())
		}
		if se, ok := err.(rpc.ServerError); ok {
			// The designated recovery shim: net/rpc flattens server-side
			// errors to strings, so the typed eviction error can only be
			// recovered here, by matching fl.EvictedError's wire marker.
			//lint:allow errwrap -- net/rpc delivers errors as flattened strings
			if strings.Contains(se.Error(), evictedMarker) {
				return AggReply{}, fmt.Errorf("flrpc: %s: %w: %w", desc, se, ErrEvicted)
			}
			return AggReply{}, fmt.Errorf("flrpc: %s: %w", desc, se)
		}
		// Transport failure: drop the connection and retry; the rejoin on
		// reconnect plus the coordinator's idempotent resubmission makes
		// the retried call safe even if the first submission landed.
		lastErr = err
		c.invalidate(rc)
	}
	return AggReply{}, fmt.Errorf("flrpc: %s after %d retries: %w", desc, c.cfg.MaxRetries, lastErr)
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
