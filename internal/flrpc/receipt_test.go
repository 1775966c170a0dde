package flrpc

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fedsu/internal/core"
	"fedsu/internal/fl"
	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
)

// Tests for the byte-accounting seam: whoever encodes a collective's legs
// (flrpc.Client over TCP, sparse.ChainAggregator in-process) reports what it
// shipped to the strategy through the receipt on the call's ctx, so a leg is
// encoded once per party and Traffic is the length that crossed the wire.

const (
	receiptSpec = "topk,q4,rans"
	receiptSeed = int64(5)
	receiptSize = 3000
	receiptK    = 2
)

// fwdAgg has the shape of an aggregator wrapper written outside this tree
// (the benchmark's span recorder): it forwards ctx and the four methods and
// knows nothing of receipts. It also counts what passed through it.
type fwdAgg struct {
	inner                   sparse.Aggregator
	calls, uploads, replies int
}

func (a *fwdAgg) AggregateModel(id, round int, v []float64) ([]float64, error) {
	return a.AggregateModelCtx(context.Background(), id, round, v)
}

func (a *fwdAgg) AggregateError(id, round int, v []float64) ([]float64, error) {
	return a.AggregateErrorCtx(context.Background(), id, round, v)
}

func (a *fwdAgg) AggregateModelCtx(ctx context.Context, id, round int, v []float64) ([]float64, error) {
	out, err := sparse.AggModel(ctx, a.inner, id, round, v)
	a.count(v, out)
	return out, err
}

func (a *fwdAgg) AggregateErrorCtx(ctx context.Context, id, round int, v []float64) ([]float64, error) {
	out, err := sparse.AggError(ctx, a.inner, id, round, v)
	a.count(v, out)
	return out, err
}

func (a *fwdAgg) count(send, result []float64) {
	a.calls++
	if send != nil {
		a.uploads++
	}
	if result != nil {
		a.replies++
	}
}

// transport is one way of connecting receiptK strategies to a collective.
type transport struct {
	aggs  []sparse.Aggregator
	begin func(round int) // in-process only
	// chains that encode on this transport: per client, and the coordinator's.
	clientChains []*codec.Chain
	coord        *Coordinator
}

func parseChain(t *testing.T, spec string) *codec.Chain {
	t.Helper()
	if spec == "" {
		return nil
	}
	ch, err := codec.Parse(spec, receiptSeed)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// inProcess connects the strategies to an fl.Server, each through its own
// ChainAggregator (its own chain instance, so encodes are attributable).
func inProcess(t *testing.T, spec string) *transport {
	t.Helper()
	srv := fl.NewServer(receiptK)
	ids := make([]int, receiptK)
	tr := &transport{begin: func(k int) { srv.BeginRound(k, ids) }}
	for i := range ids {
		ids[i] = i
		ch := parseChain(t, spec)
		tr.clientChains = append(tr.clientChains, ch)
		tr.aggs = append(tr.aggs, sparse.WrapAggregator(srv, ch))
	}
	return tr
}

// overTCP connects them to a coordinator over loopback.
func overTCP(t *testing.T, spec string) *transport {
	t.Helper()
	addr, coord := startChainedCoordinator(t, receiptK, receiptSize, spec, receiptSeed)
	tr := &transport{coord: coord, aggs: make([]sparse.Aggregator, receiptK), clientChains: make([]*codec.Chain, receiptK)}
	for range tr.aggs {
		c := dialChained(t, addr, "client", spec, receiptSeed)
		tr.aggs[c.ClientID()], tr.clientChains[c.ClientID()] = c, c.chain
	}
	return tr
}

// wrapped puts a fwdAgg in front of every aggregator of tr.
func (tr *transport) wrapped() []*fwdAgg {
	fw := make([]*fwdAgg, len(tr.aggs))
	for i, a := range tr.aggs {
		fw[i] = &fwdAgg{inner: a}
		tr.aggs[i] = fw[i]
	}
	return fw
}

// drive runs rounds of lock-step Sync over tr with strategies built by mk,
// on a seeded trajectory: even parameters move linearly (FedSU promotes them
// and later runs error collectives), odd ones carry per-client noise. It
// returns every round's Traffic per client and each client's final vector.
func drive(t *testing.T, tr *transport, rounds int, mk func(id int, agg sparse.Aggregator) sparse.Syncer, contributes func(round, id int) bool) ([][]sparse.Traffic, [][]float64) {
	t.Helper()
	syncers := make([]sparse.Syncer, receiptK)
	for i := range syncers {
		syncers[i] = mk(i, tr.aggs[i])
	}
	global := make([]float64, receiptSize)
	outs := make([][]float64, receiptK)
	var traffic [][]sparse.Traffic
	for k := 0; k < rounds; k++ {
		if tr.begin != nil {
			tr.begin(k)
		}
		trs := make([]sparse.Traffic, receiptK)
		errs := make([]error, receiptK)
		var wg sync.WaitGroup
		for c := range syncers {
			local := make([]float64, receiptSize)
			rng := rand.New(rand.NewSource(int64(1000*k + c)))
			for i := range local {
				local[i] = global[i] + 0.01*float64(i%7+1)
				if i%2 == 1 {
					local[i] += 0.02 * rng.NormFloat64()
				}
			}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var out []float64
				out, trs[c], errs[c] = sparse.SyncContext(context.Background(), syncers[c], k, local, contributes == nil || contributes(k, c))
				outs[c] = append(outs[c][:0], out...)
			}(c)
		}
		wg.Wait()
		for c, err := range errs {
			if err != nil {
				t.Fatalf("round %d client %d: %v", k, c, err)
			}
		}
		traffic = append(traffic, trs)
		global = append(global[:0], outs[0]...)
	}
	return traffic, outs
}

// fedsu builds managers that account with wire — a chain instance of their
// own, so anything it encodes is a strategy re-encoding a payload.
func fedsu(t *testing.T, wire *codec.Chain) func(int, sparse.Aggregator) sparse.Syncer {
	return func(id int, agg sparse.Aggregator) sparse.Syncer {
		m, err := core.NewManager(id, receiptSize, agg, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		m.SetWire(sparse.Wire{Chain: wire})
		return m
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestOneEncodePerLeg: three rounds of two FedSU managers under
// topk,q4,rans. On both transports each upload runs the chain exactly once
// — in the party that ships it, which also yields the error-feedback image
// — no client encodes a reply, and the strategies' own chain encodes nothing.
func TestOneEncodePerLeg(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(*testing.T, string) *transport
	}{{"in-process", inProcess}, {"tcp", overTCP}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.open(t, receiptSpec)
			fw := tr.wrapped()
			wire := parseChain(t, receiptSpec)
			drive(t, tr, 3, fedsu(t, wire), nil)

			if n := wire.Encodes() + wire.Reply().Encodes(); n != 0 {
				t.Errorf("the strategies' accounting chain encoded %d times, want 0", n)
			}
			collectives := 0
			for c, ch := range tr.clientChains {
				if fw[c].uploads != 3 {
					t.Fatalf("client %d made %d uploads in 3 rounds, want 3", c, fw[c].uploads)
				}
				if got := ch.Encodes(); got != int64(fw[c].uploads) {
					t.Errorf("client %d: %d chain encodes for %d uploads", c, got, fw[c].uploads)
				}
				// In-process each ChainAggregator plays the coordinator's reply
				// encoder for its own client; over TCP the client only decodes.
				wantReply := int64(0)
				if tr.coord == nil {
					wantReply = int64(fw[c].replies)
				}
				if got := ch.Reply().Encodes(); got != wantReply {
					t.Errorf("client %d: %d reply-chain encodes, want %d", c, got, wantReply)
				}
				collectives = fw[c].replies
			}
			if tr.coord != nil {
				// One encode per collective, served to every waiter from the
				// reply cache; a racing duplicate is possible but bounded.
				got := tr.coord.chain.Reply().Encodes()
				if got < int64(collectives) || got > int64(receiptK*collectives) {
					t.Errorf("coordinator encoded %d replies for %d collectives", got, collectives)
				}
				if n := tr.coord.chain.Encodes(); n != 0 {
					t.Errorf("coordinator ran the upload chain %d times, want 0", n)
				}
			}
		})
	}
}

// TestTrafficIsWhatShipped: ten rounds (promotions and error collectives
// included). Traffic is equal field-for-field between the TCP and the
// in-process run, with and without a forwarding wrapper in the way; the
// bits are too; and over TCP the byte sums minus one header per message are
// the coordinator's own payload counters.
func TestTrafficIsWhatShipped(t *testing.T) {
	const rounds = 10
	type result struct {
		traffic [][]sparse.Traffic
		final   [][]float64
	}
	run := func(tr *transport) result {
		traffic, final := drive(t, tr, rounds, fedsu(t, parseChain(t, receiptSpec)), nil)
		return result{traffic, final}
	}
	ref := run(inProcess(t, receiptSpec))
	checked := 0
	for _, trs := range ref.traffic {
		checked += trs[0].CheckedParams
	}
	if checked == 0 {
		t.Fatal("the trajectory never reached an error collective; the test would not cover that leg")
	}

	wrappedInProc := inProcess(t, receiptSpec)
	wrappedInProc.wrapped()
	tcp := overTCP(t, receiptSpec)
	fw := tcp.wrapped()
	for name, got := range map[string]result{
		"in-process behind a forwarding wrapper": run(wrappedInProc),
		"tcp behind a forwarding wrapper":        run(tcp),
		"tcp":                                    run(overTCP(t, receiptSpec)),
	} {
		for k := range ref.traffic {
			for c := range ref.traffic[k] {
				if got.traffic[k][c] != ref.traffic[k][c] {
					t.Errorf("%s: round %d client %d traffic %+v, in-process %+v", name, k, c, got.traffic[k][c], ref.traffic[k][c])
				}
			}
		}
		for c := range ref.final {
			if !sameBits(got.final[c], ref.final[c]) {
				t.Errorf("%s: client %d ends on different bits than the in-process run", name, c)
			}
		}
	}

	var up, down, messages int
	for k := range ref.traffic {
		for c := range ref.traffic[k] {
			up += ref.traffic[k][c].UpBytes
			down += ref.traffic[k][c].DownBytes
		}
	}
	for _, f := range fw {
		messages += f.calls
	}
	ctr := tcp.coord.Counters()
	if got, want := int64(up-messages*sparse.HeaderBytes), ctr.Get("agg_rx_bytes"); got != want {
		t.Errorf("Σ UpBytes − headers = %d, coordinator received %d payload bytes", got, want)
	}
	if got, want := int64(down-messages*sparse.HeaderBytes), ctr.Get("agg_tx_bytes"); got != want {
		t.Errorf("Σ DownBytes − headers = %d, coordinator served %d payload bytes", got, want)
	}
}

// TestHeaderOnlyLegs: an abstention uploads the header alone and a
// collective nobody contributed to answers with the header alone, on every
// transport and wire, reported or computed; a contributing upload on the
// default wire costs the dense message either way.
func TestHeaderOnlyLegs(t *testing.T) {
	// Round 0 everyone contributes, round 1 client 0 abstains, round 2 all do.
	contributes := func(round, id int) bool { return round == 0 || (round == 1 && id != 0) }
	for _, tc := range []struct {
		name, spec string
		open       func(*testing.T, string) *transport
	}{
		{"in-process default wire", "", inProcess},
		{"in-process chain", receiptSpec, inProcess},
		{"tcp default wire", "", overTCP},
		{"tcp chain", receiptSpec, overTCP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := sparse.Wire{Chain: parseChain(t, tc.spec)}
			traffic, _ := drive(t, tc.open(t, tc.spec), 3, func(id int, agg sparse.Aggregator) sparse.Syncer {
				f := sparse.NewFedAvg(id, receiptSize, agg)
				f.SetWire(wire)
				return f
			}, contributes)
			for k, trs := range traffic {
				for c, tr := range trs {
					switch {
					case !contributes(k, c):
						if tr.UpBytes != sparse.HeaderBytes {
							t.Errorf("round %d client %d: abstention charged %d up, want the %d-byte header", k, c, tr.UpBytes, sparse.HeaderBytes)
						}
					case tc.spec == "":
						// No parameter of the trajectory is zero, so the upload
						// is the dense message whatever the values.
						if want := sparse.DenseMessageBytes(receiptSize); tr.UpBytes != want {
							t.Errorf("round %d client %d: upload charged %d, the default wire ships %d", k, c, tr.UpBytes, want)
						}
					case tr.UpBytes <= sparse.HeaderBytes:
						t.Errorf("round %d client %d: contributing upload charged %d", k, c, tr.UpBytes)
					}
					if empty := k == 2; empty != (tr.DownBytes == sparse.HeaderBytes) {
						t.Errorf("round %d client %d: downlink charged %d (header %d)", k, c, tr.DownBytes, sparse.HeaderBytes)
					}
				}
			}
		})
	}
}

// lastAgg remembers the slice the aggregator behind it returned.
type lastAgg struct {
	*Client
	last []float64
}

func (a *lastAgg) AggregateModelCtx(ctx context.Context, id, round int, v []float64) ([]float64, error) {
	out, err := a.Client.AggregateModelCtx(ctx, id, round, v)
	a.last = out
	return out, err
}

// TestFedAvgOverTCPKeepsTheDecodedResult: the client decodes each reply
// into a slice of the caller's own and marks the receipt Owned, so FedAvg
// starts the next round from that very slice instead of a second 8n copy.
func TestFedAvgOverTCPKeepsTheDecodedResult(t *testing.T) {
	const k, n = 2, 500
	_, addr := startCoordinatorWith(t, Config{NumClients: k, ModelSize: n})
	clients := make([]*Client, k) // all dialed before any starts round 0
	for i := range clients {
		c, err := Dial(addr, "owned")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			agg := &lastAgg{Client: c}
			local := make([]float64, n)
			for j := range local {
				local[j] = float64(c.ClientID() + j + 1)
			}
			out, _, err := sparse.NewFedAvg(c.ClientID(), n, agg).SyncCtx(context.Background(), 0, local, true)
			if err != nil || len(out) != n {
				t.Errorf("client %d: %d values, %v", c.ClientID(), len(out), err)
				return
			}
			if &out[0] != &agg.last[0] {
				t.Errorf("client %d: FedAvg copied a result the transport had decoded for it alone", c.ClientID())
			}
			if want := float64(k+1) / 2; out[0] != want { // the mean of id+1 over the fleet
				t.Errorf("client %d: out[0] = %v, want %v", c.ClientID(), out[0], want)
			}
		}()
	}
	wg.Wait()
}
