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
	"fedsu/internal/trace"
)

func startCoordinator(t *testing.T, n, size int) (addr string) {
	t.Helper()
	c, err := NewCoordinator(n, size)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Listen("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

func TestJoinAssignsIDs(t *testing.T) {
	addr := startCoordinator(t, 2, 5)
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
	if a.ClientID() == b.ClientID() {
		t.Error("clients must receive distinct ids")
	}
	if a.NumClients() != 2 || a.ModelSize() != 5 {
		t.Errorf("session metadata = %d/%d", a.NumClients(), a.ModelSize())
	}
	if _, err := Dial(addr, "c"); err == nil {
		t.Error("joining a full session must fail")
	}
}

func TestAggregateOverTCP(t *testing.T) {
	addr := startCoordinator(t, 2, 2)
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
	wg.Add(2)
	go func() {
		defer wg.Done()
		ra, _ = a.AggregateModel(a.ClientID(), 0, []float64{1, 3})
	}()
	go func() {
		defer wg.Done()
		rb, _ = b.AggregateModel(b.ClientID(), 0, []float64{3, 5})
	}()
	wg.Wait()
	for _, r := range [][]float64{ra, rb} {
		if len(r) != 2 || r[0] != 2 || r[1] != 4 {
			t.Fatalf("TCP mean = %v, want [2 4]", r)
		}
	}
}

// TestAbstainOverTCP: an abstention (nil values) costs its frame header
// only. A barrier where every member abstains hands each nil, and no
// payload byte crosses the wire in either direction, on the default wire
// and under a chain. On the default wire, a barrier with one contributor
// hands both members its values, and a zero vector comes back as a
// present vector, not as nil.
func TestAbstainOverTCP(t *testing.T) {
	if sparse.MessageBytes(nil) != sparse.HeaderBytes {
		t.Fatalf("MessageBytes(nil) = %d, want HeaderBytes %d", sparse.MessageBytes(nil), sparse.HeaderBytes)
	}
	for _, spec := range []string{"", "topk,q4"} {
		t.Run("wire="+spec, func(t *testing.T) {
			addr, coord := startChainedCoordinator(t, 2, 1, spec, 3)
			a := dialChained(t, addr, "a", spec, 3)
			b := dialChained(t, addr, "b", spec, 3)
			round := func(r int, va, vb []float64) (ra, rb []float64) {
				t.Helper()
				var wg sync.WaitGroup
				var ea, eb error
				wg.Add(2)
				go func() { defer wg.Done(); ra, ea = a.AggregateModel(a.ClientID(), r, va) }()
				go func() { defer wg.Done(); rb, eb = b.AggregateModel(b.ClientID(), r, vb) }()
				wg.Wait()
				if ea != nil || eb != nil {
					t.Fatalf("round %d: %v / %v", r, ea, eb)
				}
				return ra, rb
			}

			if ra, rb := round(0, nil, nil); ra != nil || rb != nil {
				t.Fatalf("every member abstained: got %v / %v, want nil both", ra, rb)
			}
			for _, cn := range []struct {
				name     string
				counters *trace.Counters
			}{{"client a", a.Counters()}, {"client b", b.Counters()}, {"coordinator", coord.Counters()}} {
				for _, k := range []string{"agg_tx_bytes", "agg_rx_bytes"} {
					if got := cn.counters.Get(k); got != 0 {
						t.Errorf("%s: %s = %d after an all-abstain barrier, want 0 (header-only)", cn.name, k, got)
					}
				}
			}
			if spec != "" {
				return
			}
			if ra, rb := round(1, []float64{7}, nil); len(ra) != 1 || ra[0] != 7 || len(rb) != 1 || rb[0] != 7 {
				t.Fatalf("abstain aggregation = %v / %v, want [7] both", ra, rb)
			}
			if ra, rb := round(2, []float64{0}, nil); len(ra) != 1 || ra[0] != 0 || len(rb) != 1 || rb[0] != 0 {
				t.Fatalf("zero mean = %v / %v, want the present vector [0] both", ra, rb)
			}
		})
	}
}

// quantAggregator wraps an in-process aggregator with the wire codec's
// float32 quantization, so a reference fleet sees exactly what a TCP fleet
// sees: contributions quantize on submit (request payload), means quantize
// on the way back (reply payload).
type quantAggregator struct{ inner sparse.Aggregator }

func quantizeVec(v []float64) []float64 {
	if v == nil {
		return nil
	}
	q := make([]float64, len(v))
	for i, x := range v {
		q[i] = sparse.QuantizeWire(x)
	}
	return q
}

func (a quantAggregator) AggregateModel(clientID, round int, values []float64) ([]float64, error) {
	res, err := a.inner.AggregateModel(clientID, round, quantizeVec(values))
	return quantizeVec(res), err
}

func (a quantAggregator) AggregateError(clientID, round int, values []float64) ([]float64, error) {
	res, err := a.inner.AggregateError(clientID, round, quantizeVec(values))
	return quantizeVec(res), err
}

// TestDistributedMatchesInProcess runs the same FedSU training once through
// the in-process engine and once through real TCP clients, and requires
// bit-identical final models. The reference side routes through
// quantAggregator, the model of the wire's float32 quantization — the TCP
// side must match it to the last bit.
func TestDistributedMatchesInProcess(t *testing.T) {
	const (
		numClients = 3
		rounds     = 10
		localIters = 2
		batch      = 4
		seed       = int64(9)
	)
	ds := data.Synthesize(data.SynthConfig{
		Name: "tcp", Channels: 1, Size: 8, Classes: 3,
		Samples: 192, Noise: 0.2, Jitter: 1, Seed: 21,
	})
	builder := func() *nn.Model {
		return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 3, Seed: 4}, 16)
	}
	shards := data.PartitionDirichlet(ds, numClients, 1.0, seed)
	opts := core.DefaultOptions()

	// Reference: the same client loop as the TCP side, sharing the
	// in-process fl.Server directly (netem-driven participation would
	// complicate bit-exact equality).
	refServer := fl.NewServer(numClients)
	runFleet := func(agg func(i int) sparse.Aggregator, begin func(round int)) [][]float64 {
		clients := make([]*fl.Client, numClients)
		for i := 0; i < numClients; i++ {
			model := builder()
			mgr, err := core.NewManager(i, model.Size(), agg(i), opts)
			if err != nil {
				t.Fatal(err)
			}
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
		func(int) sparse.Aggregator { return quantAggregator{inner: refServer} },
		func(k int) { refServer.BeginRound(k, []int{0, 1, 2}) },
	)

	// TCP fleet.
	size := builder().Size()
	addr := startCoordinator(t, numClients, size)
	conns := make([]*Client, numClients)
	for range conns {
		c, err := Dial(addr, "client")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
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
