package flrpc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fedsu/internal/sparse"
)

// Tests of the coordinator's round bookkeeping, driven through the handlers
// directly: which submission may open a round, and how often a collective's
// reply is encoded.

// joined returns a coordinator with every seat taken.
func joined(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := NewCoordinatorWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.NumClients; i++ {
		if err := c.Join(JoinArgs{Name: fmt.Sprint(i)}, &JoinReply{}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// submission is one Aggregate call running in the background.
type submission struct {
	reply AggReply
	done  chan error
}

func submit(c *Coordinator, id, round int, v float64) *submission {
	s := &submission{done: make(chan error, 1)}
	args := AggArgs{ClientID: id, Round: round, Kind: "model", Payload: sparse.EncodeVectorPayload([]float64{v})}
	go func() { s.done <- c.Aggregate(args, &s.reply) }()
	return s
}

// mean waits for the call and decodes its one-value result.
func (s *submission) mean(t *testing.T) (float64, error) {
	t.Helper()
	select {
	case err := <-s.done:
		if err != nil {
			return 0, err
		}
		out, err := decodeVector(s.reply.Nil, s.reply.Payload, nil, 1)
		if err != nil || len(out) != 1 {
			t.Fatalf("reply decodes to %v, %v", out, err)
		}
		return out[0], nil
	case <-time.After(10 * time.Second):
		t.Fatal("submission blocked: the session is wedged")
		return 0, nil
	}
}

func runRound(t *testing.T, c *Coordinator, round int, a, b float64) float64 {
	t.Helper()
	sa, sb := submit(c, 0, round, a), submit(c, 1, round, b)
	ma, erra := sa.mean(t)
	mb, errb := sb.mean(t)
	if erra != nil || errb != nil || ma != mb {
		t.Fatalf("round %d: %v (%v) / %v (%v)", round, ma, erra, mb, errb)
	}
	return ma
}

// A duplicate of an old round's submission arriving while a newer barrier is
// open must neither reopen its round — fl.Tree.BeginRound drops every
// collective in flight — nor join a barrier nobody else will come to: it is
// answered from the reply cache, or refused as stale once that is pruned.
func TestStaleSubmissionDoesNotWedge(t *testing.T) {
	c := joined(t, Config{NumClients: 2, ModelSize: 1})
	means := make([]float64, 4)
	for r := range means {
		means[r] = runRound(t, c, r, float64(r), float64(r+2))
	}
	first := submit(c, 0, 4, 10)
	awaitWaiting(t, c, 1)

	if _, err := submit(c, 1, 1, 99).mean(t); !errors.Is(err, ErrStaleRound) {
		t.Errorf("round 1 resubmitted during round 4: %v, want ErrStaleRound", err)
	}
	if m, err := submit(c, 1, 3, 99).mean(t); err != nil || m != means[3] {
		t.Errorf("round 3 resubmitted during round 4: %v, %v; want its cached mean %v", m, err, means[3])
	}
	second := submit(c, 1, 4, 20)
	for _, s := range []*submission{first, second} {
		if m, err := s.mean(t); err != nil || m != 15 {
			t.Errorf("round 4: %v, %v; want 15", m, err)
		}
	}
}

// With nothing in flight an earlier round does reopen: a whole fleet
// resuming from a checkpoint replays it and gets a fresh mean, and the
// rounds after it are computed again, not served from the first pass.
func TestWholeFleetReplayReopensRound(t *testing.T) {
	c := joined(t, Config{NumClients: 2, ModelSize: 1})
	for r := 0; r < 6; r++ {
		runRound(t, c, r, 1, 3)
	}
	for r := 2; r < 8; r++ {
		if m := runRound(t, c, r, 5, 7); m != 6 {
			t.Fatalf("replayed round %d: mean %v, want 6", r, m)
		}
	}
}

// Every waiter of a barrier wakes at once; exactly one of them encodes the
// reply and all of them ship its bytes.
func TestReplyEncodedOnce(t *testing.T) {
	const k, n, rounds = 8, 20000, 12
	vec := make([]float64, n)
	for i := range vec {
		vec[i] = float64(i%97) - 48.5
	}
	payload := sparse.EncodeVectorPayload(vec)
	for _, compress := range []string{"", "q8"} {
		c := joined(t, Config{NumClients: k, ModelSize: n, Compress: compress})
		for r := 0; r < rounds; r++ {
			replies := make([]AggReply, k)
			var wg sync.WaitGroup
			for id := range replies {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := c.Aggregate(AggArgs{ClientID: id, Round: r, Kind: "model", Payload: payload}, &replies[id]); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			for id := range replies {
				if len(replies[id].Payload) == 0 || &replies[id].Payload[0] != &replies[0].Payload[0] {
					t.Fatalf("compress %q round %d: waiter %d does not ship waiter 0's bytes", compress, r, id)
				}
			}
		}
		if compress != "" {
			if got := c.chain.Reply().Encodes(); got != rounds {
				t.Errorf("compress %q: %d reply encodes for %d collectives", compress, got, rounds)
			}
		}
	}
}
