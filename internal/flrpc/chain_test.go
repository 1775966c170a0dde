package flrpc

import (
	"context"
	"sync"
	"testing"

	"fedsu/internal/core"
	"fedsu/internal/data"
	"fedsu/internal/fl"
	"fedsu/internal/nn"
	"fedsu/internal/opt"
	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
)

// Tests for the chained wire path: a compression chain negotiated on both
// ends of the TCP session must reproduce the in-process engine's
// chain-wrapped fold bit-for-bit — the chain generalization of
// TestDistributedMatchesInProcess / TestAsyncWireMatchesInProcess.

func startChainedCoordinator(t *testing.T, n, size int, spec string, seed int64, acfg fl.AsyncConfig) (addr string, coord *Coordinator) {
	t.Helper()
	coord, err := NewCoordinatorWith(Config{
		NumClients: n, ModelSize: size, Async: acfg,
		Compress: spec, CompressSeed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Listen("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l.Addr().String(), coord
}

func dialChained(t *testing.T, addr, name, spec string, seed int64) *Client {
	t.Helper()
	c, err := DialWith(addr, DialConfig{Name: name, Compress: spec, CompressSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestChainedDistributedMatchesInProcess runs the same FedSU training once
// through an in-process server wrapped in sparse.ChainAggregator and once
// through real TCP clients encoding with the same chain and seed, and
// requires bit-identical final models. Both transports apply exactly one
// encode→decode trip per leg, so this holds even though the chain's
// quantized wire images are not float32 values.
func TestChainedDistributedMatchesInProcess(t *testing.T) {
	const (
		numClients = 3
		rounds     = 8
		localIters = 2
		batch      = 4
		seed       = int64(9)
		spec       = "topk,q4,rans"
		chainSeed  = int64(5)
	)
	ds := data.Synthesize(data.SynthConfig{
		Name: "tcp-chain", Channels: 1, Size: 8, Classes: 3,
		Samples: 192, Noise: 0.2, Jitter: 1, Seed: 21,
	})
	builder := func() *nn.Model {
		return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 3, Seed: 4}, 16)
	}
	shards := data.PartitionDirichlet(ds, numClients, 1.0, seed)
	opts := core.DefaultOptions()

	chain, err := codec.Parse(spec, chainSeed)
	if err != nil {
		t.Fatal(err)
	}

	refServer := fl.NewServer(numClients)
	runFleet := func(agg func(i int) sparse.Aggregator, begin func(round int)) [][]float64 {
		clients := make([]*fl.Client, numClients)
		for i := 0; i < numClients; i++ {
			model := builder()
			mgr, err := core.NewManager(i, model.Size(), agg(i), opts)
			if err != nil {
				t.Fatal(err)
			}
			// Both fleets bind the same wire, so the managers run the
			// delta-domain collective on both transports.
			sparse.SetSyncerWire(mgr, sparse.Wire{Chain: chain})
			clients[i] = fl.NewClient(i, model, opt.NewSGD(0.05), shards[i], mgr, seed)
		}
		for k := 0; k < rounds; k++ {
			if begin != nil {
				begin(k)
			}
			var wg sync.WaitGroup
			for _, c := range clients {
				wg.Add(1)
				go func(c *fl.Client) {
					defer wg.Done()
					c.TrainLocal(k, localIters, batch)
					if _, err := c.SyncRoundCtx(context.Background(), k, true); err != nil {
						t.Error(err)
					}
				}(c)
			}
			wg.Wait()
		}
		out := make([][]float64, numClients)
		for i, c := range clients {
			out[i] = c.Model().Vector()
		}
		return out
	}

	refVecs := runFleet(
		func(int) sparse.Aggregator { return sparse.WrapAggregator(refServer, chain) },
		func(k int) { refServer.BeginRound(k, []int{0, 1, 2}) },
	)

	size := builder().Size()
	addr, _ := startChainedCoordinator(t, numClients, size, spec, chainSeed, fl.AsyncConfig{})
	conns := make([]*Client, numClients)
	for range conns {
		c := dialChained(t, addr, "client", spec, chainSeed)
		conns[c.ClientID()] = c
	}
	tcpVecs := runFleet(
		func(i int) sparse.Aggregator { return conns[i] },
		nil,
	)

	for i := range refVecs {
		for j := range refVecs[i] {
			if refVecs[i][j] != tcpVecs[i][j] {
				t.Fatalf("client %d param %d: in-process %v != TCP %v",
					i, j, refVecs[i][j], tcpVecs[i][j])
			}
		}
	}
}

// TestChainedAsyncWireMatchesInProcess extends TestAsyncWireMatchesInProcess
// to a chained session: the TCP async fold under "topk,q4" must agree
// bit-for-bit with an in-process server whose submissions and replies pass
// through the same chain's round trip.
func TestChainedAsyncWireMatchesInProcess(t *testing.T) {
	const (
		size      = 33
		spec      = "topk,q4"
		chainSeed = int64(11)
	)
	acfg := fl.AsyncConfig{K: 2, MaxStaleness: 4, StalenessWeight: 0.5}
	chain, err := codec.Parse(spec, chainSeed)
	if err != nil {
		t.Fatal(err)
	}

	ref := fl.NewServer(2)
	if err := ref.SetAsync(acfg); err != nil {
		t.Fatal(err)
	}
	refAgg := sparse.WrapAggregator(ref, chain)

	addr, coord := startChainedCoordinator(t, 2, size, spec, chainSeed, acfg)
	a := dialChained(t, addr, "a", spec, chainSeed)
	b := dialChained(t, addr, "b", spec, chainSeed)
	clients := []*Client{a, b}

	vec := func(clientID, cycle int) []float64 {
		v := make([]float64, size)
		for i := range v {
			v[i] = float64((clientID+1)*(i+3)) * 0.125 * float64(cycle+1)
		}
		return v
	}

	schedule := []int{0, 1, 0, 0, 1, 1, 0, 1}
	var lastWire, lastRef []float64
	for cycle, id := range schedule {
		v := vec(id, cycle)
		wire, err := clients[id].AggregateModel(clients[id].ClientID(), 0, v)
		if err != nil {
			t.Fatal(err)
		}
		inproc, err := refAgg.AggregateModel(id, 0, v)
		if err != nil {
			t.Fatal(err)
		}
		if (wire == nil) != (inproc == nil) {
			t.Fatalf("cycle %d: wire nil=%v, in-process nil=%v", cycle, wire == nil, inproc == nil)
		}
		lastWire, lastRef = wire, inproc
	}
	if lastWire == nil {
		t.Fatal("schedule produced no apply")
	}
	for i := range lastWire {
		if lastWire[i] != lastRef[i] {
			t.Fatalf("wire global deviates from chained in-process fold at %d: %v vs %v",
				i, lastWire[i], lastRef[i])
		}
	}
	if coord.AsyncVersion() != ref.AsyncVersion() {
		t.Fatalf("version mismatch: wire %d, in-process %d", coord.AsyncVersion(), ref.AsyncVersion())
	}
}

// TestChainedAbstainHeaderOnly: a chained session's abstention still ships
// zero payload bytes — the chain never encodes a nil vector.
func TestChainedAbstainHeaderOnly(t *testing.T) {
	addr, _ := startChainedCoordinator(t, 2, 4, "topk,q4", 3, fl.AsyncConfig{K: 2})
	a := dialChained(t, addr, "a", "topk,q4", 3)
	res, err := a.AggregateModel(a.ClientID(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("abstention before first apply returned %v, want nil", res)
	}
	if got := a.Counters().Get("agg_tx_bytes"); got != 0 {
		t.Errorf("abstention charged %d payload tx bytes, want 0 (header-only)", got)
	}
}
