package flrpc

import (
	"strings"
	"sync"
	"testing"

	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
)

func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(0, 10); err == nil {
		t.Error("zero clients must fail")
	}
}

func TestAggregateUnknownClient(t *testing.T) {
	c, err := NewCoordinator(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var reply AggReply
	if err := c.Aggregate(AggArgs{ClientID: 7, Round: 0, Kind: "model"}, &reply); err == nil {
		t.Error("unknown client must fail")
	}
}

func TestAggregateUnknownKind(t *testing.T) {
	c, err := NewCoordinator(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var join JoinReply
	if err := c.Join(JoinArgs{Name: "x"}, &join); err != nil {
		t.Fatal(err)
	}
	var reply AggReply
	err = c.Aggregate(AggArgs{ClientID: 0, Round: 0, Kind: "bogus", Payload: sparse.EncodeVectorPayload([]float64{1})}, &reply)
	if err == nil || !strings.Contains(err.Error(), "unknown collective") {
		t.Errorf("unknown kind error = %v", err)
	}
}

func TestAggregateMalformedPayload(t *testing.T) {
	c, err := NewCoordinator(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	var join JoinReply
	if err := c.Join(JoinArgs{Name: "x"}, &join); err != nil {
		t.Fatal(err)
	}
	var reply AggReply
	// Garbage bytes must be rejected before they reach the barrier.
	err = c.Aggregate(AggArgs{ClientID: 0, Round: 0, Kind: "model", Payload: []byte{0xff, 1, 2, 3}}, &reply)
	if err == nil {
		t.Fatal("malformed payload must fail")
	}
	// A payload longer than the session's model size is an allocation bomb
	// and must be bounded by ModelSize.
	over := sparse.EncodeVectorPayload(make([]float64, 5))
	err = c.Aggregate(AggArgs{ClientID: 0, Round: 0, Kind: "model", Payload: over}, &reply)
	if err == nil {
		t.Fatal("payload above ModelSize must fail")
	}
}

func TestWireBytesCounters(t *testing.T) {
	addr := startCoordinator(t, 2, 4)
	a, _ := Dial(addr, "a")
	defer a.Close()
	b, _ := Dial(addr, "b")
	defer b.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a.AggregateModel(a.ClientID(), 0, []float64{1, 0, 2, 0}) }()
	go func() { defer wg.Done(); b.AggregateModel(b.ClientID(), 0, []float64{3, 0, 4, 0}) }()
	wg.Wait()
	want := int64(codec.BaseSize([]float64{1, 0, 2, 0}))
	if got := a.Counters().Get("agg_tx_bytes"); got != want {
		t.Errorf("client tx bytes = %d, want %d", got, want)
	}
	if got := a.Counters().Get("agg_rx_bytes"); got <= 0 {
		t.Errorf("client rx bytes = %d, want > 0", got)
	}
}

func TestErrorCollectiveOverTCP(t *testing.T) {
	addr := startCoordinator(t, 2, 1)
	a, _ := Dial(addr, "a")
	defer a.Close()
	b, _ := Dial(addr, "b")
	defer b.Close()
	var wg sync.WaitGroup
	var ra, rb []float64
	wg.Add(2)
	go func() { defer wg.Done(); ra, _ = a.AggregateError(a.ClientID(), 0, []float64{2}) }()
	go func() { defer wg.Done(); rb, _ = b.AggregateError(b.ClientID(), 0, []float64{4}) }()
	wg.Wait()
	if len(ra) != 1 || ra[0] != 3 || rb[0] != 3 {
		t.Fatalf("error collective = %v/%v, want [3]", ra, rb)
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", "x"); err == nil {
		t.Error("dialing a closed port must fail")
	}
}

func TestConcurrentRounds(t *testing.T) {
	// Several consecutive rounds over the same connections; ensures the
	// coordinator's per-round bookkeeping is garbage-collected and reused
	// correctly.
	addr := startCoordinator(t, 2, 1)
	a, _ := Dial(addr, "a")
	defer a.Close()
	b, _ := Dial(addr, "b")
	defer b.Close()
	for k := 0; k < 20; k++ {
		var wg sync.WaitGroup
		var ra, rb []float64
		wg.Add(2)
		go func() { defer wg.Done(); ra, _ = a.AggregateModel(a.ClientID(), k, []float64{float64(k)}) }()
		go func() { defer wg.Done(); rb, _ = b.AggregateModel(b.ClientID(), k, []float64{float64(k + 2)}) }()
		wg.Wait()
		want := float64(k) + 1
		if ra[0] != want || rb[0] != want {
			t.Fatalf("round %d: got %v/%v, want %v", k, ra, rb, want)
		}
	}
}
