package flrpc

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"fedsu/internal/fl"
)

func startRelay(t *testing.T, cfg RelayConfig) (*Relay, string) {
	t.Helper()
	r, err := NewRelay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	l, err := Listen("127.0.0.1:0", r.Coordinator())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return r, l.Addr().String()
}

func tierVec(id, size int) []float64 {
	v := make([]float64, size)
	for i := range v {
		v[i] = math.Sin(float64(id*size+i)) * 1e3
	}
	return v
}

// TestRelayTreeBitIdentity: eight clients aggregated through two
// leaf-aggregator relays under a tree coordinator must see the same
// global, to the bit, as eight clients against one flat coordinator —
// the distributed tier deployment cannot perturb the canonical fold.
// One client abstains so the partial weight path is exercised too.
func TestRelayTreeBitIdentity(t *testing.T) {
	const n, size, fanout = 8, 300, 4
	vecs := make([][]float64, n)
	for id := range vecs {
		if id == 5 {
			continue // abstainer
		}
		vecs[id] = tierVec(id, size)
	}

	run := func(submit func(global int) ([]float64, error)) [][]float64 {
		out := make([][]float64, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				out[g], errs[g] = submit(g)
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("client %d: %v", g, err)
			}
		}
		return out
	}

	// Flat reference.
	_, flatAddr := startCoordinatorWith(t, Config{NumClients: n, ModelSize: size})
	flatClients := make([]*Client, n)
	for g := 0; g < n; g++ {
		cl, err := Dial(flatAddr, "flat")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		flatClients[cl.ClientID()] = cl
	}
	flatRes := run(func(g int) ([]float64, error) {
		return flatClients[g].AggregateModel(g, 0, vecs[g])
	})

	// Tree deployment: root + two relays of four members each.
	root, rootAddr := startCoordinatorWith(t, Config{NumClients: n, ModelSize: size, Fanout: fanout})
	relayA, addrA := startRelay(t, RelayConfig{Upstream: rootAddr, BlockSize: fanout})
	relayB, addrB := startRelay(t, RelayConfig{Upstream: rootAddr, BlockSize: fanout})
	if relayA.BaseID() != 0 || relayB.BaseID() != fanout {
		t.Fatalf("relay bases = %d/%d, want 0/%d", relayA.BaseID(), relayB.BaseID(), fanout)
	}
	treeClients := make([]*Client, n)
	for g := 0; g < n; g++ {
		addr, base := addrA, 0
		if g >= fanout {
			addr, base = addrB, fanout
		}
		cl, err := Dial(addr, "member")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		treeClients[base+cl.ClientID()] = cl
	}
	treeRes := run(func(g int) ([]float64, error) {
		return treeClients[g].AggregateModel(treeClients[g].ClientID(), 0, vecs[g])
	})

	for g := 0; g < n; g++ {
		if len(treeRes[g]) != len(flatRes[g]) {
			t.Fatalf("client %d: result length %d vs flat %d", g, len(treeRes[g]), len(flatRes[g]))
		}
		for i := range treeRes[g] {
			if math.Float64bits(treeRes[g][i]) != math.Float64bits(flatRes[g][i]) {
				t.Fatalf("client %d elem %d: tree %x vs flat %x — relay tree broke bit-identity", g, i, math.Float64bits(treeRes[g][i]), math.Float64bits(flatRes[g][i]))
			}
		}
	}
	st := root.TierStats()
	if st.ForwardedPartials != 2 {
		t.Fatalf("forwarded partials = %d, want 2", st.ForwardedPartials)
	}
	if got := root.Counters().Get("partials_rx"); got != 2 {
		t.Fatalf("partials_rx = %d, want 2", got)
	}
	// The root ingested two partial payloads, not eight member uploads.
	if rx := root.Counters().Get("agg_rx_bytes"); rx <= 0 {
		t.Fatalf("agg_rx_bytes = %d", rx)
	}
	// Relays accounted their member traffic upward.
	if tr := root.Counters().Get("relay_traffic_bytes"); tr <= 0 {
		t.Fatalf("relay_traffic_bytes = %d", tr)
	}
}

// TestBlockJoinValidation: block reservations demand a tree coordinator,
// fanout alignment, and capacity.
func TestBlockJoinValidation(t *testing.T) {
	_, flatAddr := startCoordinatorWith(t, Config{NumClients: 4, ModelSize: 8})
	if _, err := DialWith(flatAddr, DialConfig{Name: "r", BlockSize: 2}); err == nil {
		t.Fatal("block join against a flat coordinator accepted")
	}

	_, treeAddr := startCoordinatorWith(t, Config{NumClients: 8, ModelSize: 8, Fanout: 4})
	// A direct client first breaks alignment for the next block.
	direct, err := Dial(treeAddr, "direct")
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if _, err := DialWith(treeAddr, DialConfig{Name: "r", BlockSize: 4}); err == nil {
		t.Fatal("misaligned block join accepted")
	}
	// Oversized blocks are rejected.
	big, err := NewCoordinatorWith(Config{NumClients: 16, ModelSize: 8, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	var reply JoinReply
	if err := big.Join(JoinArgs{Name: "r", BlockSize: 5}, &reply); err == nil {
		t.Fatal("block larger than fanout accepted")
	}
	// Fanout 1 and negative fanouts are refused, not served flat.
	for _, f := range []int{1, -1, -8} {
		if _, err := NewCoordinatorWith(Config{NumClients: 4, ModelSize: 8, Fanout: f}); !errors.Is(err, fl.ErrModeRefused) {
			t.Errorf("Fanout %d: got %v, want fl.ErrModeRefused", f, err)
		}
	}
}

// TestRelayDeadlineEviction: a member missing the relay's barrier
// deadline is evicted at the relay, the block forwards a reduced-weight
// partial, and the root publishes the survivors' mean.
func TestRelayDeadlineEviction(t *testing.T) {
	root, rootAddr := startCoordinatorWith(t, Config{NumClients: 8, ModelSize: 1, Fanout: 4, Deadline: 30 * time.Second})
	relayA, addrA := startRelay(t, RelayConfig{Upstream: rootAddr, BlockSize: 4, Deadline: 50 * time.Millisecond})
	_, addrB := startRelay(t, RelayConfig{Upstream: rootAddr, BlockSize: 4})
	clients := make([]*Client, 8)
	for g := 0; g < 8; g++ {
		addr, base := addrA, 0
		if g >= 4 {
			addr, base = addrB, 4
		}
		cl, err := Dial(addr, "m")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[base+cl.ClientID()] = cl
	}
	// Global ids 0..2 and 4..7 submit id+1; id 3 stays silent past relay
	// A's barrier deadline, so A forwards a weight-3 partial.
	var wg sync.WaitGroup
	res := make([][]float64, 8)
	for g := 0; g < 8; g++ {
		if g == 3 {
			continue
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var err error
			res[g], err = clients[g].AggregateModel(clients[g].ClientID(), 0, []float64{float64(g + 1)})
			if err != nil {
				t.Errorf("member %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	// The reply payload crosses the wire float32-encoded.
	want := float64(float32((1.0 + 2 + 3 + 5 + 6 + 7 + 8) / 7.0))
	for g, r := range res {
		if g == 3 {
			continue
		}
		if len(r) != 1 || r[0] != want {
			t.Fatalf("member %d got %v, want [%v]", g, r, want)
		}
	}
	if ev := relayA.Coordinator().Evicted(); len(ev) != 1 || ev[0] != 3 {
		t.Fatalf("relay evicted = %v, want [3]", ev)
	}
	// The root saw two full-block partials, one carrying reduced weight;
	// its own eviction list stays empty — the fault was absorbed in-tier.
	if ev := root.Evicted(); len(ev) != 0 {
		t.Fatalf("root evicted = %v, want none", ev)
	}
	if st := root.TierStats(); st.ForwardedPartials != 2 {
		t.Fatalf("forwarded partials = %d, want 2", st.ForwardedPartials)
	}
}
