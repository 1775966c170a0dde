package flrpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"fedsu/internal/sparse"
)

// Lifetime tests of the reply cache's reference-counted buffers: a buffer
// goes back to the pool only when the cache and every responder holding it
// are done, so no holder ever reads bytes a later round has encoded over
// them. The connections are in-memory pipes: net.Pipe has no buffer, so a
// reply the test has not read keeps its responder inside the frame write,
// holding its reference, for as long as the test likes. All of them also run
// under -race, where sync.Pool drops a share of its Puts at random.

// pipeConn serves one end of an in-memory pipe on c and returns the other,
// joined.
func pipeConn(t *testing.T, c *Coordinator) (*conn, int) {
	t.Helper()
	srv, cli := net.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.serveConn(ctx, srv)
	}()
	t.Cleanup(func() {
		cancel()
		cli.Close()
		<-done
	})
	cli.SetDeadline(time.Now().Add(10 * time.Second)) // a hang fails the test instead of stalling it
	cn := newConn(cli)
	return cn, rawJoin(t, cn)
}

// roundVec is client id's upload for round: distinct in every round, so
// two rounds' replies never share their bytes.
func roundVec(id, round, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(round*n+i) + 0.25*float64(id+1)
	}
	return v
}

// upload writes id's model submission for round without waiting for the
// reply; it returns once the coordinator has read the frame.
func upload(t *testing.T, cn *conn, id, round, n int) {
	t.Helper()
	f := frame{typ: typeAggregate, kind: kindOf(sparse.ModelLeg), id: id, round: round, payload: sparse.EncodeVectorPayload(roundVec(id, round, n))}
	if err := cn.writeFrame(context.Background(), &f); err != nil {
		t.Fatal(err)
	}
}

// reply reads cn's next frame and returns its payload, failing on a
// refusal.
func reply(t *testing.T, cn *conn) (round int, payload []byte) {
	t.Helper()
	f, err := cn.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.err(); err != nil {
		t.Fatalf("round %d: %v", f.round, err)
	}
	return f.round, f.payload
}

// awaitRefs waits until every reply-cache entry has want references: the
// cache's, plus one per holder that never lets go (an Aggregate caller) —
// every responder has dropped its own.
func awaitRefs(t *testing.T, c *Coordinator, want int32) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		off := int32(0)
		c.mu.Lock()
		for _, e := range c.replyEnc {
			if r := e.refs.Load(); r != want {
				off = r
			}
		}
		c.mu.Unlock()
		if off == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a cached reply has %d references, want %d", off, want)
		}
	}
}

// A responder still writing round 0's reply while rounds 1–4 open — round
// 2's sweep drops the cache's reference to it, and every later round
// encodes its reply from the same pool — ships round 0's bytes intact, and
// the replies queued behind it theirs.
func TestReplyIntactWhileSweptMidWrite(t *testing.T) {
	const n, rounds = 4096, 5
	c, err := NewCoordinatorWith(Config{NumClients: 2, ModelSize: n})
	if err != nil {
		t.Fatal(err)
	}
	a, ida := pipeConn(t, c)
	s, ids := pipeConn(t, c)

	want := make([][]byte, rounds)
	upload(t, s, ids, 0, n)
	upload(t, a, ida, 0, n)
	_, want[0] = reply(t, a)
	// Stop s's reply after its header and the first bytes of its payload:
	// the responder is parked inside the write.
	var head [headerSize + 64]byte
	if _, err := io.ReadFull(s.br, head[:]); err != nil {
		t.Fatal(err)
	}
	if size, status := int(binary.LittleEndian.Uint32(head[:])), head[10]; size != len(want[0]) || status != statusOK {
		t.Fatalf("round 0 reply to s: %d bytes, status %d; a got %d bytes", size, status, len(want[0]))
	}

	for r := 1; r < rounds; r++ {
		upload(t, s, ids, r, n)
		upload(t, a, ida, r, n)
		_, want[r] = reply(t, a)
	}

	got := append([]byte(nil), head[headerSize:]...)
	got = append(got, make([]byte, len(want[0])-len(got))...)
	if _, err := io.ReadFull(s.br, got[len(head)-headerSize:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[0]) {
		t.Error("round 0: the reply written across the sweep differs from the one a received")
	}
	for range rounds - 1 {
		if r, p := reply(t, s); !bytes.Equal(p, want[r]) {
			t.Errorf("round %d: s's reply differs from a's", r)
		}
	}
	awaitRefs(t, c, 1)
}

// A stale retry answered from the reply cache — a duplicate of round 2
// arriving while round 3's barrier is open, and again once it has closed —
// gets the bytes round 2's waiters got, however many retries take and drop
// a reference on the entry.
func TestStaleRetryGetsTheWaitersBytes(t *testing.T) {
	const n = 4096
	c, err := NewCoordinatorWith(Config{NumClients: 2, ModelSize: n})
	if err != nil {
		t.Fatal(err)
	}
	a, ida := pipeConn(t, c)
	s, ids := pipeConn(t, c)

	var want [4][]byte
	for r := range 3 {
		upload(t, s, ids, r, n)
		upload(t, a, ida, r, n)
		_, want[r] = reply(t, a)
		if _, p := reply(t, s); !bytes.Equal(p, want[r]) {
			t.Fatalf("round %d: the waiters' replies differ", r)
		}
	}
	retry := func(round int, stale bool) {
		t.Helper()
		upload(t, s, ids, round, n)
		f, err := s.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.err(); stale {
			if !errors.Is(err, ErrStaleRound) {
				t.Errorf("retry of round %d: %v, want ErrStaleRound", round, err)
			}
		} else if err != nil || f.round != round || !bytes.Equal(f.payload, want[round]) {
			t.Errorf("retry of round %d: round %d, %v; the bytes differ from its waiters'", round, f.round, err)
		}
	}

	upload(t, a, ida, 3, n)
	awaitWaiting(t, c, 1)
	for range 3 {
		retry(2, false)
	}
	retry(1, true) // round 3 opened and swept it
	upload(t, s, ids, 3, n)
	_, want[3] = reply(t, a)
	if _, p := reply(t, s); !bytes.Equal(p, want[3]) {
		t.Fatal("round 3: the waiters' replies differ")
	}
	// Round 3 encoded its reply; round 2's entry is still cached and must
	// still hold round 2's bytes.
	retry(2, false)
	awaitRefs(t, c, 1)
}

// A Coordinator.Aggregate caller keeps its reply: the payload of round 0 is
// unchanged after its entry is swept and later rounds encode theirs, while
// the other member's handler releases every reference it takes.
func TestAggregateReplyOutlivesLaterRounds(t *testing.T) {
	const n, rounds = 4096, 6
	for _, compress := range []string{"", "topk,q4,rans"} {
		t.Run("compress="+compress, func(t *testing.T) {
			c, err := NewCoordinatorWith(Config{NumClients: 2, ModelSize: n, Compress: compress, CompressSeed: 3})
			if err != nil {
				t.Fatal(err)
			}
			var jr JoinReply
			if err := c.Join(JoinArgs{Name: "direct"}, &jr); err != nil {
				t.Fatal(err)
			}
			s, ids := pipeConn(t, c)

			kept := make([]AggReply, rounds)
			copies := make([][]byte, rounds)
			for r := range rounds {
				done := make(chan error, 1)
				go func() {
					args := AggArgs{ClientID: jr.ClientID, Round: r, Kind: "model", Payload: sparse.EncodeVectorPayload(roundVec(jr.ClientID, r, n))}
					done <- c.Aggregate(args, &kept[r])
				}()
				upload(t, s, ids, r, n)
				if _, p := reply(t, s); len(p) == 0 {
					t.Fatalf("round %d: empty reply", r)
				}
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				copies[r] = append([]byte(nil), kept[r].Payload...)
			}
			for r := range rounds {
				if !bytes.Equal(kept[r].Payload, copies[r]) {
					t.Errorf("round %d: the Aggregate caller's payload changed after %d later rounds", r, rounds-1-r)
				}
			}
			awaitRefs(t, c, 2) // s's handlers dropped theirs; the caller's stays
		})
	}
}
