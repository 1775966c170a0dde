package flrpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"fedsu/internal/fl"
	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
)

// The framed transport. Every message is one frame: a fixed little-endian
// header followed by len payload bytes (DESIGN.md §5m has the table):
//
//	[len u32][seq u32][type u8][flags u8][status u8][kind u8][client id i32][round i32]
//
// A reply echoes its request's seq and type with flagReply set; several
// calls share a connection and complete in any order. What used to ride in
// an envelope struct is in the header: abstention and "no contributors" are
// flag bits, the outcome is the status byte, and only the codec payload (or,
// on a non-zero status, the error text) follows.

const (
	headerSize = 20
	protoMagic = 0x55534446 // "FDSU"
	// protoVersion 2: chain payloads carry the block-model entropy stage
	// (tag 0x07) and the quantizer's dense mode; a version-1 peer would fail
	// on them mid-round, so it is refused at Join.
	protoVersion = 2
	// preJoinLimit bounds every frame until Join has told both ends the
	// session's model size, and every error text after.
	preJoinLimit = 4096
	// maxInFlight bounds the collective calls one connection may have
	// running; at the bound the coordinator stops reading the connection and
	// TCP pushes back on the peer. A client needs one per strategy call it
	// has in flight — two for a FedSU round, whose model and error
	// collectives run at once — plus one per call it abandoned whose barrier
	// is still open.
	maxInFlight = 8
)

const (
	typeJoin byte = 1 + iota
	typePing
	typeAggregate
	typePartial
)

const (
	flagReply   byte = 1 << iota
	flagAbstain      // request: the client contributes nothing
	flagNil          // reply: no client contributed
	flagRejoin       // join: re-admit the header's client id
)

// kindOf is a collective's kind byte in the frame header: its sparse.Leg
// plus one, so 1 is the model leg, 2 the error leg, and a zeroed header
// names none.
func kindOf(leg sparse.Leg) byte { return byte(leg) + 1 }

// Sentinel errors an application-level failure carries across the wire as
// its status byte, as does fl.ErrNotMember. Match with errors.Is; all are
// terminal for the client's retry loop.
var (
	// ErrEvicted aliases fl.ErrEvicted: the coordinator evicted this client
	// after a missed collective deadline.
	ErrEvicted = fl.ErrEvicted
	// ErrStaleRound rejects a submission for a round the session has left
	// behind while a newer round's barrier is open.
	ErrStaleRound    = errors.New("stale round")
	ErrUnknownClient = errors.New("unknown client")
	ErrUnknownKind   = errors.New("unknown collective kind")
	// ErrMalformed covers a payload the codec rejects and a frame the
	// transport does (over the session's size limit, unknown type).
	ErrMalformed   = errors.New("malformed message")
	ErrSessionFull = errors.New("session full")
	// ErrVersion reports a peer speaking another protocol or version.
	ErrVersion = errors.New("protocol mismatch")
)

const (
	statusOK    byte = iota
	statusError      // application error with no sentinel
	statusEvicted
	statusStale
	statusUnknownClient
	statusUnknownKind
	statusMalformed
	statusSessionFull
	statusVersion
	statusNotMember
	numStatus
)

var statusErrs = [numStatus]error{
	statusEvicted: ErrEvicted, statusStale: ErrStaleRound, statusUnknownClient: ErrUnknownClient,
	statusUnknownKind: ErrUnknownKind, statusMalformed: ErrMalformed,
	statusSessionFull: ErrSessionFull, statusVersion: ErrVersion,
	statusNotMember: fl.ErrNotMember,
}

func statusOf(err error) byte {
	for s := statusEvicted; s < numStatus; s++ {
		if errors.Is(err, statusErrs[s]) {
			return s
		}
	}
	return statusError
}

// remoteError is an application error the peer reported: its text, typed by
// the frame's status byte.
type remoteError struct {
	msg  string
	kind error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.kind }

// frameLimit is the largest payload a session of modelSize parameters may
// frame: twice its largest legitimate message, the raw-float64 partial. A
// session that declares no size gets the decoders' own default cap.
func frameLimit(modelSize int) int {
	if modelSize <= 0 {
		modelSize = codec.DefaultMaxParams
	}
	return min(preJoinLimit+2*sparse.PartialPayloadSize(modelSize), math.MaxUint32)
}

// frame is one message. payload aliases buf when the frame was read from a
// socket: whoever consumes the payload releases it.
type frame struct {
	seq                      uint32
	typ, flags, status, kind byte
	id, round                int
	payload                  []byte
	buf                      *[]byte
}

func (f *frame) release() {
	codec.PutBuf(f.buf)
	f.buf, f.payload = nil, nil
}

// err converts a reply's non-zero status into the typed error it stands
// for, consuming the payload (the error text). An unknown status is itself a
// malformed message.
func (f *frame) err() error {
	if f.status == statusOK {
		return nil
	}
	e := &remoteError{msg: string(f.payload), kind: ErrMalformed}
	if f.status < numStatus {
		e.kind = statusErrs[f.status]
	} else {
		e.msg = fmt.Sprintf("flrpc: unknown status %d: %s", f.status, e.msg)
	}
	f.release()
	return e
}

// conn frames one network connection. Reads belong to a single loop (the
// coordinator's serveConn, the client's readLoop); writers take the write
// token for exactly one frame. The fields below the token are the client's
// call multiplexer and stay zero on the coordinator's side.
type conn struct {
	nc         net.Conn
	br         *bufio.Reader
	rhdr, whdr [headerSize]byte
	// wtok is held across one frame write. A channel, not a mutex, so a
	// caller queued behind a model-sized write still honours its context.
	wtok chan struct{}
	// limit is the largest payload readFrame accepts: preJoinLimit until
	// Join has succeeded, frameLimit(ModelSize) after.
	limit atomic.Int64

	mu      sync.Mutex
	seq     uint32
	pending map[uint32]chan frame
	done    chan struct{} // closed when readLoop has exited; err is set before
	err     error
}

func newConn(nc net.Conn) *conn {
	c := &conn{nc: nc, br: bufio.NewReader(nc), wtok: make(chan struct{}, 1)}
	c.limit.Store(preJoinLimit)
	return c
}

// readFrame reads the next frame. The length prefix is checked against the
// limit in force once the header has arrived, before any buffer is taken;
// the payload then lands directly in a pooled buffer of that size.
func (c *conn) readFrame() (frame, error) {
	if _, err := io.ReadFull(c.br, c.rhdr[:]); err != nil {
		return frame{}, err
	}
	h, le := c.rhdr[:], binary.LittleEndian
	f := frame{
		seq: le.Uint32(h[4:]), typ: h[8], flags: h[9], status: h[10], kind: h[11],
		id: int(int32(le.Uint32(h[12:]))), round: int(int32(le.Uint32(h[16:]))),
	}
	n := int(le.Uint32(h))
	if limit := c.limit.Load(); int64(n) > limit {
		return f, fmt.Errorf("flrpc: frame of %d bytes exceeds the session's limit of %d: %w", n, limit, ErrMalformed)
	}
	if n > 0 {
		buf := codec.GetBuf(n)
		if _, err := io.ReadFull(c.br, (*buf)[:n]); err != nil {
			codec.PutBuf(buf)
			return frame{}, fmt.Errorf("flrpc: frame truncated: %w", err)
		}
		f.buf, f.payload = buf, (*buf)[:n]
	}
	return f, nil
}

// writeFrame writes header and payload with one vectored write, straight
// from the caller's buffer. An error other than ctx's leaves the stream
// mid-frame: the caller must drop the connection.
func (c *conn) writeFrame(ctx context.Context, f *frame) error {
	if uint64(len(f.payload)) > math.MaxUint32 || int(int32(f.id)) != f.id || int(int32(f.round)) != f.round {
		return fmt.Errorf("flrpc: frame field out of range (%d payload bytes, client %d, round %d): %w", len(f.payload), f.id, f.round, ErrMalformed)
	}
	select {
	case c.wtok <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-c.wtok }()
	h, le := c.whdr[:], binary.LittleEndian
	le.PutUint32(h, uint32(len(f.payload)))
	le.PutUint32(h[4:], f.seq)
	h[8], h[9], h[10], h[11] = f.typ, f.flags, f.status, f.kind
	le.PutUint32(h[12:], uint32(int32(f.id)))
	le.PutUint32(h[16:], uint32(int32(f.round)))
	bufs := net.Buffers{h, f.payload}
	_, err := bufs.WriteTo(c.nc)
	return err
}

// respond answers req: payload under flags on success, err's status and
// text otherwise.
func (c *conn) respond(ctx context.Context, req *frame, flags byte, id int, payload []byte, err error) error {
	rep := frame{seq: req.seq, typ: req.typ, flags: flagReply | flags, kind: req.kind, id: id, round: req.round, payload: payload}
	if err != nil {
		msg := err.Error()
		rep.flags, rep.status, rep.payload = flagReply, statusOf(err), []byte(msg[:min(len(msg), preJoinLimit)])
	}
	return c.writeFrame(ctx, &rep)
}

// startClient turns c into the calling side: it starts the read loop that
// hands each reply to the call waiting on its seq.
func (c *conn) startClient() {
	c.pending = map[uint32]chan frame{}
	c.done = make(chan struct{})
	go c.readLoop()
}

func (c *conn) readLoop() {
	defer close(c.done)
	for {
		f, err := c.readFrame()
		if err != nil {
			c.err = err
			c.nc.Close()
			return
		}
		c.mu.Lock()
		ch := c.pending[f.seq]
		delete(c.pending, f.seq)
		c.mu.Unlock()
		if ch == nil {
			f.release() // its caller gave up
			continue
		}
		ch <- f
	}
}

// roundTrip sends req and waits for its reply, the connection's end, or
// ctx. A *remoteError is the peer's answer; any other error other than
// ctx's is the transport's and the connection is unusable.
func (c *conn) roundTrip(ctx context.Context, req *frame) (frame, error) {
	ch := make(chan frame, 1)
	c.mu.Lock()
	c.seq++
	req.seq = c.seq
	c.pending[req.seq] = ch
	c.mu.Unlock()
	err := c.writeFrame(ctx, req)
	if err == nil {
		select {
		case rep := <-ch:
			return rep, rep.err()
		case <-c.done:
			err = c.err
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	c.mu.Lock()
	delete(c.pending, req.seq)
	c.mu.Unlock()
	return frame{}, err
}

// Close closes the connection and waits for the read loop to exit.
func (c *conn) Close() error {
	err := c.nc.Close()
	<-c.done
	return err
}
