package flrpc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func startCoordinatorWith(t *testing.T, cfg Config) (*Coordinator, string) {
	t.Helper()
	c, err := NewCoordinatorWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Listen("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return c, svc.Addr().String()
}

// A client killed mid-round must not wedge the session: the barrier closes
// at the deadline over the survivors, the dead client is evicted, its late
// submission is rejected with ErrEvicted, and training continues.
func TestDeadClientEvictedSessionContinues(t *testing.T) {
	coord, addr := startCoordinatorWith(t, Config{
		NumClients: 3, ModelSize: 1, Deadline: 150 * time.Millisecond,
	})
	a, err := Dial(addr, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, "b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	dead, err := Dial(addr, "dead")
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()

	// Round 0: the dead client never submits.
	var wg sync.WaitGroup
	var ra, rb []float64
	var ea, eb error
	start := time.Now()
	wg.Add(2)
	go func() { defer wg.Done(); ra, ea = a.AggregateModel(a.ClientID(), 0, []float64{3}) }()
	go func() { defer wg.Done(); rb, eb = b.AggregateModel(b.ClientID(), 0, []float64{6}) }()
	wg.Wait()
	if ea != nil || eb != nil {
		t.Fatalf("survivors errored: %v / %v", ea, eb)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("barrier took %v, deadline not enforced", el)
	}
	for _, r := range [][]float64{ra, rb} {
		if len(r) != 1 || r[0] != 4.5 {
			t.Errorf("survivor mean = %v, want [4.5]", r)
		}
	}
	if got := coord.Evicted(); len(got) != 1 || got[0] != dead.ClientID() {
		t.Errorf("Evicted() = %v, want [%d]", got, dead.ClientID())
	}

	// The straggler's late submission is rejected with the typed error.
	if _, err := dead.AggregateModel(dead.ClientID(), 0, []float64{99}); !errors.Is(err, ErrEvicted) {
		t.Errorf("late submission error = %v, want ErrEvicted", err)
	}

	// Round 1: the surviving pair keeps training.
	wg.Add(2)
	go func() { defer wg.Done(); ra, ea = a.AggregateModel(a.ClientID(), 1, []float64{1}) }()
	go func() { defer wg.Done(); rb, eb = b.AggregateModel(b.ClientID(), 1, []float64{3}) }()
	wg.Wait()
	if ea != nil || eb != nil {
		t.Fatalf("round 1 errored: %v / %v", ea, eb)
	}
	for _, r := range [][]float64{ra, rb} {
		if len(r) != 1 || r[0] != 2 {
			t.Errorf("round 1 mean = %v, want [2]", r)
		}
	}
}

// A client whose connection drops mid-Aggregate reconnects, rejoins by id,
// resubmits, and still receives the collective result — the coordinator
// treats the resubmission idempotently, whichever topology it folds over.
func TestReconnectMidAggregate(t *testing.T) {
	for _, fanout := range []int{0, 2} {
		t.Run(fmt.Sprintf("fanout=%d", fanout), func(t *testing.T) { testReconnectMidAggregate(t, fanout) })
	}
}

func testReconnectMidAggregate(t *testing.T, fanout int) {
	_, addr := startCoordinatorWith(t, Config{NumClients: 2, ModelSize: 1, Fanout: fanout})
	a, err := DialWith(addr, DialConfig{Name: "a", RetryBase: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, "b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	var ra []float64
	var ea error
	wg.Add(1)
	go func() { defer wg.Done(); ra, ea = a.AggregateModel(a.ClientID(), 0, []float64{2}) }()

	// Let a's submission reach the barrier, then sever its connection while
	// the call is parked waiting for b.
	time.Sleep(100 * time.Millisecond)
	a.mu.Lock()
	rc := a.rpc
	a.mu.Unlock()
	rc.Close()

	rb, err := b.AggregateModel(b.ClientID(), 0, []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if ea != nil {
		t.Fatalf("reconnecting client errored: %v", ea)
	}
	for _, r := range [][]float64{ra, rb} {
		if len(r) != 1 || r[0] != 3 {
			t.Errorf("result = %v, want [3]", r)
		}
	}
	if a.Counters().Get("reconnects") == 0 {
		t.Error("expected at least one reconnect")
	}
	if a.Counters().Get("retries") == 0 {
		t.Error("expected at least one retry")
	}
}

// A session started below its -clients capacity barriers on the clients
// that actually joined, not on phantom ids that never connected.
func TestPartialSessionCompletes(t *testing.T) {
	_, addr := startCoordinatorWith(t, Config{NumClients: 4, ModelSize: 1})
	a, err := Dial(addr, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, "b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	var ra, rb []float64
	var ea, eb error
	done := make(chan struct{})
	wg.Add(2)
	go func() { defer wg.Done(); ra, ea = a.AggregateModel(a.ClientID(), 0, []float64{2}) }()
	go func() { defer wg.Done(); rb, eb = b.AggregateModel(b.ClientID(), 0, []float64{6}) }()
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("partial session blocked on phantom clients")
	}
	if ea != nil || eb != nil {
		t.Fatalf("errors: %v / %v", ea, eb)
	}
	for _, r := range [][]float64{ra, rb} {
		if len(r) != 1 || r[0] != 4 {
			t.Errorf("mean = %v, want [4]", r)
		}
	}
}

// Regression for the nil-vs-abstain wire bug: a zero-length contribution
// ([]float64{}, gob-flattened to nil in transit) must stay a contribution —
// both clients receive a non-nil empty mean, distinguishable from the
// all-abstained nil result.
func TestEmptyContributionSurvivesWire(t *testing.T) {
	_, addr := startCoordinatorWith(t, Config{NumClients: 2, ModelSize: 0})
	a, err := Dial(addr, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, "b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	var ra, rb []float64
	var ea, eb error
	wg.Add(2)
	go func() { defer wg.Done(); ra, ea = a.AggregateModel(a.ClientID(), 0, []float64{}) }()
	go func() { defer wg.Done(); rb, eb = b.AggregateModel(b.ClientID(), 0, []float64{}) }()
	wg.Wait()
	if ea != nil || eb != nil {
		t.Fatalf("errors: %v / %v", ea, eb)
	}
	if ra == nil || rb == nil {
		t.Fatalf("empty contributions decoded as abstention: %#v / %#v", ra, rb)
	}
	if len(ra) != 0 || len(rb) != 0 {
		t.Errorf("results = %v / %v, want empty", ra, rb)
	}

	// And the genuine all-abstained collective still reads as nil.
	wg.Add(2)
	go func() { defer wg.Done(); ra, ea = a.AggregateModel(a.ClientID(), 1, nil) }()
	go func() { defer wg.Done(); rb, eb = b.AggregateModel(b.ClientID(), 1, nil) }()
	wg.Wait()
	if ea != nil || eb != nil {
		t.Fatalf("errors: %v / %v", ea, eb)
	}
	if ra != nil || rb != nil {
		t.Errorf("all-abstained result = %#v / %#v, want nil", ra, rb)
	}
}

// A heartbeating straggler is slow, not dead: its fresh Pings buy the
// barrier one deadline extension and it completes the round unevicted.
func TestHeartbeatBuysExtension(t *testing.T) {
	const d = 300 * time.Millisecond
	coord, addr := startCoordinatorWith(t, Config{
		NumClients: 2, ModelSize: 1, Deadline: d,
	})
	fast, err := Dial(addr, "fast")
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	slow, err := DialWith(addr, DialConfig{Name: "slow", Heartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()

	var wg sync.WaitGroup
	var rf []float64
	var ef error
	wg.Add(1)
	go func() { defer wg.Done(); rf, ef = fast.AggregateModel(fast.ClientID(), 0, []float64{2}) }()

	// Miss the first deadline but land within the heartbeat-funded
	// extension.
	time.Sleep(d + d/3)
	rs, err := slow.AggregateModel(slow.ClientID(), 0, []float64{4})
	if err != nil {
		t.Fatalf("heartbeating straggler evicted: %v", err)
	}
	wg.Wait()
	if ef != nil {
		t.Fatal(ef)
	}
	for _, r := range [][]float64{rf, rs} {
		if len(r) != 1 || r[0] != 3 {
			t.Errorf("result = %v, want [3] (both contributed)", r)
		}
	}
	if n := coord.EvictionCount(); n != 0 {
		t.Errorf("evictions = %d, want 0", n)
	}
	if coord.Counters().Get("heartbeats") == 0 {
		t.Error("expected heartbeats to have been received")
	}
}

// Service.Err stays nil while serving and after a clean shutdown, and Done
// closes once the serve loop exits.
func TestServiceCleanShutdown(t *testing.T) {
	c, err := NewCoordinator(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Listen("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Err(); err != nil {
		t.Errorf("Err() while serving = %v, want nil", err)
	}
	svc.Close()
	select {
	case <-svc.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done() not closed after Close")
	}
	if err := svc.Err(); err != nil {
		t.Errorf("Err() after clean shutdown = %v, want nil", err)
	}
}
