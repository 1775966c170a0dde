package flrpc

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
)

// Tests of the framed transport itself: hostile frames on a raw connection,
// typed errors end to end, and the steady-state allocation budget.

// rawDial opens a connection that the test drives frame by frame.
func rawDial(t *testing.T, addr string) *conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second)) // a hang fails the test instead of stalling it
	return newConn(nc)
}

// exchange writes req and reads the next frame.
func exchange(t *testing.T, cn *conn, req frame) frame {
	t.Helper()
	if err := cn.writeFrame(context.Background(), &req); err != nil {
		t.Fatal(err)
	}
	rep, err := cn.readFrame()
	if err != nil {
		t.Fatalf("no reply to frame type %d: %v", req.typ, err)
	}
	return rep
}

func hello(magic uint32, version byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = append(b, version)
	return append(binary.LittleEndian.AppendUint32(b, 0), "raw"...)
}

// rawJoin joins and lifts the connection's reply limit as a client would.
func rawJoin(t *testing.T, cn *conn) int {
	t.Helper()
	rep := exchange(t, cn, frame{typ: typeJoin, payload: hello(protoMagic, protoVersion)})
	if err := rep.err(); err != nil {
		t.Fatal(err)
	}
	cn.limit.Store(int64(frameLimit(int(binary.LittleEndian.Uint32(rep.payload[4:])))))
	return rep.id
}

func TestGiantLengthPrefixRefused(t *testing.T) {
	_, addr := startCoordinatorWith(t, Config{NumClients: 1, ModelSize: 4})
	cn := rawDial(t, addr)
	id := rawJoin(t, cn)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	giant := frameBytes(t, frame{seq: 9, typ: typeAggregate, kind: kindModel, id: id})
	binary.LittleEndian.PutUint32(giant, 1<<30)
	if _, err := cn.nc.Write(giant); err != nil {
		t.Fatal(err)
	}
	rep, err := cn.readFrame()
	if err != nil {
		t.Fatalf("no refusal: %v", err)
	}
	if err := rep.err(); !errors.Is(err, ErrMalformed) || rep.seq != 9 {
		t.Errorf("refusal = seq %d, %v; want seq 9, ErrMalformed", rep.seq, err)
	}
	if _, err := cn.readFrame(); !errors.Is(err, io.EOF) {
		t.Errorf("after the refusal: %v, want the connection closed", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("refusing a 1 GiB prefix allocated %d MiB", grew>>20)
	}
}

// A frame cut off mid-payload ends the connection on either side: the
// coordinator hangs up, and a client whose reply is cut off reconnects and
// resubmits.
func TestTruncatedFrameIsATransportError(t *testing.T) {
	_, addr := startCoordinatorWith(t, Config{NumClients: 1, ModelSize: 4})
	cn := rawDial(t, addr)
	id := rawJoin(t, cn)
	full := frameBytes(t, frame{seq: 1, typ: typeAggregate, kind: kindModel, id: id, payload: sparse.EncodeVectorPayload([]float64{1, 2, 3, 4})})
	if _, err := cn.nc.Write(full[:len(full)-5]); err != nil {
		t.Fatal(err)
	}
	cn.nc.(*net.TCPConn).CloseWrite()
	if _, err := cn.readFrame(); !errors.Is(err, io.EOF) {
		t.Errorf("coordinator answered a truncated frame: %v", err)
	}

	mean := sparse.EncodeVectorPayload([]float64{7})
	srv := scriptedServer(t, func(n int, cn *conn, req frame) bool {
		if req.typ == typeJoin {
			return cn.respond(context.Background(), &req, 0, 0, []byte{1, 0, 0, 0, 1, 0, 0, 0}, nil) == nil
		}
		if n == 0 { // first connection: promise the mean, deliver half of it
			b := frameBytes(t, frame{seq: req.seq, typ: req.typ, flags: flagReply, payload: mean})
			cn.nc.Write(b[:len(b)-len(mean)/2])
			return false
		}
		return cn.respond(context.Background(), &req, 0, 0, mean, nil) == nil
	})
	c, err := DialWith(srv, DialConfig{RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.AggregateModel(0, 0, []float64{7})
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("after a truncated reply: %v, %v; want [7]", got, err)
	}
	if r, rc := c.Counters().Get("retries"), c.Counters().Get("reconnects"); r != 1 || rc != 1 {
		t.Errorf("retries = %d, reconnects = %d; want 1 and 1", r, rc)
	}
}

// scriptedServer speaks the frame protocol from a script: answer is called
// with the connection's index for every request and returns false to hang
// up.
func scriptedServer(t *testing.T, answer func(n int, cn *conn, req frame) bool) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { l.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			cn := newConn(nc)
			cn.limit.Store(1 << 20)
			for {
				req, err := cn.readFrame()
				if err != nil || !answer(n, cn, req) {
					break
				}
			}
			nc.Close()
		}
	}()
	return l.Addr().String()
}

func TestUnknownTypeKindStatusAreTypedErrors(t *testing.T) {
	_, addr := startCoordinatorWith(t, Config{NumClients: 1, ModelSize: 4})
	cn := rawDial(t, addr)
	id := rawJoin(t, cn)
	vec := sparse.EncodeVectorPayload([]float64{1})
	for _, tc := range []struct {
		name string
		req  frame
		want error
	}{
		{"type", frame{seq: 1, typ: 99, id: id}, ErrMalformed},
		{"kind", frame{seq: 2, typ: typeAggregate, kind: 9, id: id, payload: vec}, ErrUnknownKind},
		{"client", frame{seq: 3, typ: typeAggregate, kind: kindModel, id: 41, payload: vec}, ErrUnknownClient},
		{"payload", frame{seq: 4, typ: typeAggregate, kind: kindModel, id: id, payload: []byte{0xff, 1, 2}}, ErrMalformed},
		{"oversize vector", frame{seq: 5, typ: typeAggregate, kind: kindModel, id: id, payload: sparse.EncodeVectorPayload(make([]float64, 5))}, ErrMalformed},
		{"partial on a flat session", frame{seq: 6, typ: typePartial, kind: kindModel, id: id, payload: vec}, ErrUnknownClient},
	} {
		rep := exchange(t, cn, tc.req)
		var app *remoteError
		if err := rep.err(); rep.seq != tc.req.seq || !errors.As(err, &app) || !errors.Is(err, tc.want) {
			t.Errorf("unknown %s: reply seq %d, %v; want seq %d, %v", tc.name, rep.seq, err, tc.req.seq, tc.want)
		}
	}
	// The connection survived all of them.
	rep := exchange(t, cn, frame{seq: 7, typ: typePing, id: id})
	if err := rep.err(); err != nil {
		t.Errorf("ping after the rejected frames: %v", err)
	}

	// A status this client does not know is terminal, not retried.
	srv := scriptedServer(t, func(_ int, cn *conn, req frame) bool {
		if req.typ == typeJoin {
			return cn.respond(context.Background(), &req, 0, 0, []byte{1, 0, 0, 0, 1, 0, 0, 0}, nil) == nil
		}
		rep := frame{seq: req.seq, typ: req.typ, flags: flagReply, status: 200, payload: []byte("from the future")}
		return cn.writeFrame(context.Background(), &rep) == nil
	})
	c, err := DialWith(srv, DialConfig{RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.AggregateModel(0, 0, []float64{1})
	if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "unknown status 200") || c.Counters().Get("retries") != 0 {
		t.Errorf("unknown status: %v after %d retries; want a terminal ErrMalformed", err, c.Counters().Get("retries"))
	}
}

func TestJoinRejectsOtherProtocols(t *testing.T) {
	_, addr := startCoordinatorWith(t, Config{NumClients: 1, ModelSize: 4})
	for _, tc := range []struct {
		name    string
		payload []byte
		both    []string
	}{
		{"version", hello(protoMagic, 9), []string{"version 9", "version 2"}},
		// A PR 17-or-older peer: its 0x06 entropy frames are retired, so it
		// must fail here and not mid-round on the first chain payload.
		{"version 1", hello(protoMagic, 1), []string{"speaks 0x55534446 version 1,", "version 2"}},
		{"magic", hello(0xdeadbeef, protoVersion), []string{"0xdeadbeef", "0x55534446"}},
		{"short", []byte{1, 2}, []string{"version 0", "version 2"}},
	} {
		cn := rawDial(t, addr)
		rep := exchange(t, cn, frame{typ: typeJoin, payload: tc.payload})
		err := rep.err()
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("wrong %s: %v, want ErrVersion", tc.name, err)
		}
		for _, s := range tc.both {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("wrong %s: %q does not name %q", tc.name, err, s)
			}
		}
		// Nothing but a join passes before one succeeded.
		if rep = exchange(t, cn, frame{typ: typePing}); !errors.Is(rep.err(), ErrMalformed) {
			t.Errorf("ping before join did not fail as malformed")
		}
	}
	// The session's one seat is still free.
	c, err := Dial(addr, "ok")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// Every application error the coordinator can answer with arrives as a
// sentinel the caller can match, and ends the retry loop at once.
func TestTypedErrorsEndToEnd(t *testing.T) {
	coord, addr := startCoordinatorWith(t, Config{NumClients: 2, ModelSize: 1})
	dial := func(name string) *Client {
		c, err := DialWith(addr, DialConfig{Name: name, RetryBase: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	a, b := dial("a"), dial("b")
	if _, err := Dial(addr, "c"); !errors.Is(err, ErrSessionFull) {
		t.Errorf("third client of two: %v, want ErrSessionFull", err)
	}
	if _, err := a.AggregateModel(57, 0, []float64{1}); !errors.Is(err, ErrUnknownClient) {
		t.Errorf("submission as client 57: %v, want ErrUnknownClient", err)
	}
	if _, err := a.call(context.Background(), "bogus", a.ClientID(), 0, []float64{1}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("kind bogus: %v, want ErrUnknownKind", err)
	}

	// Rounds 0–3, then a is alone in round 4 when b's round 1 arrives again.
	both := func(round int) {
		t.Helper()
		var wg sync.WaitGroup
		for _, c := range []*Client{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.AggregateModel(c.ClientID(), round, []float64{float64(round)}); err != nil {
					t.Errorf("round %d: %v", round, err)
				}
			}()
		}
		wg.Wait()
	}
	for r := 0; r < 4; r++ {
		both(r)
	}
	alone := make(chan error, 1)
	go func() {
		_, err := a.AggregateModel(a.ClientID(), 4, []float64{4})
		alone <- err
	}()
	awaitWaiting(t, coord, 1)
	if _, err := b.AggregateModel(b.ClientID(), 1, []float64{1}); !errors.Is(err, ErrStaleRound) {
		t.Errorf("round 1 during round 4: %v, want ErrStaleRound", err)
	}
	if _, err := b.AggregateModel(b.ClientID(), 4, []float64{4}); err != nil {
		t.Errorf("round 4 after the stale submission: %v", err)
	}
	if err := <-alone; err != nil {
		t.Errorf("round 4: %v", err)
	}
	if n := a.Counters().Get("retries") + b.Counters().Get("retries"); n != 0 {
		t.Errorf("%d retries; application errors are terminal", n)
	}
}

// awaitWaiting returns once n handlers are inside c's collective.
func awaitWaiting(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		w := c.waiting
		c.mu.Unlock()
		if w == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d handlers in the collective, want %d", w, n)
		}
	}
}

// TestTransportSteadyStateAllocs pins what a round over loopback may
// allocate once the pools are warm. Callers that lend a destination through
// a Receipt, as the strategies do: the one reply encoding the cache keeps,
// and nothing else vector-sized — the replies decode into the callers' own
// storage and the collective's mean goes back to the pool, every handler
// having read it under a Hold. A plain AggregateModel caller still gets a
// fresh slice of its own each round (8n each), which it may keep.
func TestTransportSteadyStateAllocs(t *testing.T) {
	const k, n, warm, rounds = 4, 65536, 3, 20
	for _, arm := range []struct {
		name    string
		receipt bool
		limit   float64
	}{
		// Slack: ~4 KiB of per-call allocations, the reply rounded up to whole
		// pages, and a pooled vector or two minted late in the window (a
		// sync.Pool's per-P private slots fill lazily), averaged over it.
		{"receipt", true, float64(codec.DenseBaseSize(n) + 128<<10)},
		{"plain", false, float64(k*8*n + codec.DenseBaseSize(n) + 128<<10)},
	} {
		t.Run(arm.name, func(t *testing.T) {
			_, addr := startCoordinatorWith(t, Config{NumClients: k, ModelSize: n})
			clients := make([]*Client, k)
			vecs, dsts, kept := make([][]float64, k), make([][]float64, k), make([][]float64, k)
			wires := make([]sparse.Wire, k)
			for i := range clients {
				c, err := Dial(addr, "alloc")
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				clients[c.ClientID()] = c
				vecs[i], dsts[i] = make([]float64, n), make([]float64, n)
				for j := range vecs[i] {
					vecs[i][j] = float64(i*n+j) + 0.5
				}
			}
			round := func(r int) {
				var wg sync.WaitGroup
				for i, c := range clients {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var out []float64
						var err error
						if arm.receipt {
							out, _, _, err = wires[i].Collect(context.Background(), sparse.AggModel, c, i, r, vecs[i], nil, dsts[i])
							if err == nil && &out[0] != &dsts[i][0] {
								t.Errorf("round %d client %d: the reply was not decoded into the lent destination", r, i)
							}
						} else {
							out, err = c.AggregateModel(i, r, vecs[i])
							// Last round's slice is still this caller's: another
							// round has run and it holds what it held.
							if kept[i] != nil && (&kept[i][0] == &out[0] || kept[i][n-1] != out[n-1]) {
								t.Errorf("round %d client %d: the slice kept from the previous round was reused", r, i)
							}
							kept[i] = out
						}
						if err != nil || len(out) != n {
							t.Errorf("round %d client %d: %d values, %v", r, i, len(out), err)
						}
					}()
				}
				wg.Wait()
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no GC: the pools stay warm
			for r := 0; r < warm; r++ {
				round(r)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for r := warm; r < warm+rounds; r++ {
				round(r)
			}
			runtime.ReadMemStats(&after)
			perRound := float64(after.TotalAlloc-before.TotalAlloc) / rounds
			t.Logf("%.0f bytes per round, limit %.0f", perRound, arm.limit)
			if !raceEnabled && perRound > arm.limit {
				t.Errorf("a steady-state round allocates %.0f bytes, over the limit of %.0f", perRound, arm.limit)
			}
		})
	}
}
