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
// TestDistributedMatchesInProcess.

func startChainedCoordinator(t *testing.T, n, size int, spec string, seed int64) (addr string, coord *Coordinator) {
	t.Helper()
	coord, err := NewCoordinatorWith(Config{
		NumClients: n, ModelSize: size,
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
	addr, _ := startChainedCoordinator(t, numClients, size, spec, chainSeed)
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
