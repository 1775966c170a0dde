package netem

import (
	"math"
	"testing"
)

func TestPopulationProfilesDeterministic(t *testing.T) {
	m, err := NewPopulationModel(DefaultPopulationConfig(100000, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 1, 77, 99999} {
		a, b := m.Profile(id), m.Profile(id)
		if a != b {
			t.Fatalf("profile for %d not stable: %+v vs %+v", id, a, b)
		}
		if a.Speed <= 0 || a.UplinkBps <= 0 || a.DownlinkBps <= 0 {
			t.Fatalf("profile for %d not positive: %+v", id, a)
		}
	}
	if m.Profile(3) == m.Profile(4) {
		t.Fatal("adjacent ids drew identical profiles (hash not diffusing)")
	}
	// A different seed re-draws the population.
	cfg := DefaultPopulationConfig(100000, 8)
	cfg.Seed = 2
	m2, _ := NewPopulationModel(cfg)
	if m.Profile(7) == m2.Profile(7) {
		t.Fatal("seed does not key the profile draw")
	}
}

func TestPopulationCohortRoundDeterministic(t *testing.T) {
	m, err := NewPopulationModel(DefaultPopulationConfig(200000, 8))
	if err != nil {
		t.Fatal(err)
	}
	cohort := make([]int, 1000)
	for i := range cohort {
		cohort[i] = i * 123 % 200000
	}
	loads := UniformCohortLoad(len(cohort), 1<<20, 1<<18, 30)
	a := m.CohortRound(5, cohort, loads, 4096)
	b := m.CohortRound(5, cohort, loads, 4096)
	if a.Duration != b.Duration || len(a.Participants) != len(b.Participants) {
		t.Fatal("cohort round not deterministic")
	}
	for i := range a.Participants {
		if a.Participants[i] != b.Participants[i] {
			t.Fatal("participant order not deterministic")
		}
	}
	// Distinct rounds see distinct jitter.
	c := m.CohortRound(6, cohort, loads, 4096)
	if a.Duration == c.Duration {
		t.Fatal("round index does not key the jitter draw")
	}
}

func TestPopulationTierTopologyAndRootBytes(t *testing.T) {
	m, err := NewPopulationModel(DefaultPopulationConfig(100000, 8))
	if err != nil {
		t.Fatal(err)
	}
	cohort := make([]int, 1000)
	for i := range cohort {
		cohort[i] = i
	}
	loads := UniformCohortLoad(1000, 1<<20, 1<<18, 30)
	out := m.CohortRound(0, cohort, loads, 4096)
	// 1000 members, fanout 8: 125 leaves -> 16 -> 2 -> 1 = 4 tiers.
	if out.Tiers != 4 {
		t.Fatalf("tiers = %d, want 4", out.Tiers)
	}
	if len(out.TierForwardSeconds) != 3 {
		t.Fatalf("forward hops = %d, want 3", len(out.TierForwardSeconds))
	}
	if out.LeafRxBytes != 1000*(1<<18) {
		t.Fatalf("leaf rx = %d, want %d", out.LeafRxBytes, 1000*(1<<18))
	}
	if out.RootRxBytes != 2*4096 {
		t.Fatalf("root rx = %d, want %d (2 root children)", out.RootRxBytes, 2*4096)
	}
	if out.RootRxBytes >= out.LeafRxBytes {
		t.Fatal("tree did not reduce root ingest below flat fan-in")
	}
	if q := len(out.Participants); q != 700 {
		t.Fatalf("quorum = %d, want 700", q)
	}
	// Duration covers the quorum member plus every forward hop.
	sum := 0.0
	for _, s := range out.TierForwardSeconds {
		sum += s
	}
	if out.Duration <= sum {
		t.Fatal("duration does not include member time")
	}
	// Degenerate single-tier case: root ingests uploads directly.
	small := m.CohortRound(0, cohort[:4], loads[:4], 4096)
	if small.Tiers != 1 || small.RootRxBytes != 4*(1<<18) {
		t.Fatalf("single-tier outcome = %+v", small)
	}
}

func TestPopulationScale(t *testing.T) {
	// 10^5 registered, 1k cohort: the profile path must be O(cohort), not
	// O(population) — this test simply exercises it end to end.
	m, err := NewPopulationModel(DefaultPopulationConfig(100000, 32))
	if err != nil {
		t.Fatal(err)
	}
	cohort := make([]int, 1000)
	for i := range cohort {
		cohort[i] = (i * 97) % 100000
	}
	out := m.CohortRound(0, cohort, UniformCohortLoad(1000, 1<<22, 1<<20, 60), 1<<16)
	if out.Duration <= 0 || math.IsNaN(out.Duration) || math.IsInf(out.Duration, 0) {
		t.Fatalf("duration = %v", out.Duration)
	}
	// Fanout 32: 32 leaves -> 1 root tier = 2 tiers.
	if out.Tiers != 2 {
		t.Fatalf("tiers = %d, want 2", out.Tiers)
	}
	if out.RootRxBytes != 32*(1<<16) {
		t.Fatalf("root rx = %d, want %d", out.RootRxBytes, 32*(1<<16))
	}
}

func TestPopulationConfigValidation(t *testing.T) {
	bad := []PopulationConfig{
		{},
		{PopulationSize: 10, Fanout: 1, Participation: 0.5, ClientUplinkMbps: 1, ClientDownlinkMbps: 1, AggregatorBandwidthMbps: 1, RootBandwidthMbps: 1},
		{PopulationSize: 10, Fanout: 2, Participation: 0, ClientUplinkMbps: 1, ClientDownlinkMbps: 1, AggregatorBandwidthMbps: 1, RootBandwidthMbps: 1},
		{PopulationSize: 10, Fanout: 2, Participation: 0.5, ClientUplinkMbps: 0, ClientDownlinkMbps: 1, AggregatorBandwidthMbps: 1, RootBandwidthMbps: 1},
	}
	for i, cfg := range bad {
		if _, err := NewPopulationModel(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestParticipantsTopologyIndependent(t *testing.T) {
	// Quorum membership is a property of the fleet, not of the server
	// topology: the same cohort must select the same participants at any
	// fanout, even when leaf fan-in contention binds hard (here the flat
	// arm's per-member share of the aggregator link is 1/500th of the
	// tree arm's), so flat and tree runs train identical trajectories.
	// Contention still shows up in Duration.
	cohort := make([]int, 1000)
	for i := range cohort {
		cohort[i] = (i * 131) % 100000
	}
	loads := UniformCohortLoad(1000, 1<<22, 1<<20, 60)
	var outs []CohortOutcome
	for _, fanout := range []int{2, 8, 1000} {
		m, err := NewPopulationModel(DefaultPopulationConfig(100000, fanout))
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, m.CohortRound(3, cohort, loads, 1<<16))
	}
	for i := 1; i < len(outs); i++ {
		if len(outs[i].Participants) != len(outs[0].Participants) {
			t.Fatalf("arm %d quorum %d != %d", i, len(outs[i].Participants), len(outs[0].Participants))
		}
		for j := range outs[0].Participants {
			if outs[i].Participants[j] != outs[0].Participants[j] {
				t.Fatalf("arm %d participant[%d] = %d, want %d", i, j, outs[i].Participants[j], outs[0].Participants[j])
			}
		}
	}
	// The fanout-1000 (flat) arm shares the aggregator link 1000 ways;
	// its contended round must be strictly slower than fanout 2's.
	if outs[2].Duration <= outs[0].Duration {
		t.Fatalf("flat duration %v not above tree duration %v", outs[2].Duration, outs[0].Duration)
	}
}

// TestPopulationBandwidthSpreadsTimes: with compute, jitter and latency
// equal across devices, BandwidthSigma alone spreads member completion
// times; at 0 every member finishes together.
func TestPopulationBandwidthSpreadsTimes(t *testing.T) {
	spread := func(sigma float64) float64 {
		cfg := DefaultPopulationConfig(1000, 8)
		cfg.BandwidthSigma = sigma
		cfg.ComputeHeterogeneity = 0
		cfg.RoundJitter = 0
		cfg.LatencySeconds = 0
		cfg.Participation = 1
		m, err := NewPopulationModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cohort := make([]int, 32)
		for i := range cohort {
			cohort[i] = i * 31
		}
		out := m.CohortRound(0, cohort, UniformCohortLoad(len(cohort), 1_000_000, 1_000_000, 0), 4096)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range out.MemberTimes {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return hi / lo
	}
	if homo := spread(0); math.Abs(homo-1) > 1e-9 {
		t.Errorf("homogeneous spread = %v, want 1", homo)
	}
	if hetero := spread(0.6); hetero < 1.5 {
		t.Errorf("lognormal σ=0.6 spread = %v, want > 1.5", hetero)
	}
}

// TestPopulationBandwidthMedianNearOne: the per-device bandwidth multiplier
// is lognormal with median 1 and scales both directions of a device's link
// alike; at σ = 0 every device has the nominal links.
func TestPopulationBandwidthMedianNearOne(t *testing.T) {
	cfg := DefaultPopulationConfig(2000, 8)
	cfg.BandwidthSigma = 0.5
	m, err := NewPopulationModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	up, down := Mbps(cfg.ClientUplinkMbps), Mbps(cfg.ClientDownlinkMbps)
	above := 0
	for id := 0; id < 2000; id++ {
		p := m.Profile(id)
		if math.Abs(p.UplinkBps/up-p.DownlinkBps/down) > 1e-12 {
			t.Fatalf("device %d: uplink ×%v, downlink ×%v", id, p.UplinkBps/up, p.DownlinkBps/down)
		}
		if p.UplinkBps > up {
			above++
		}
	}
	if frac := float64(above) / 2000; frac < 0.45 || frac > 0.55 {
		t.Errorf("fraction above median = %v, want ≈0.5", frac)
	}
	cfg.BandwidthSigma = 0
	flat, err := NewPopulationModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 1, 1999} {
		if p := flat.Profile(id); p.UplinkBps != up || p.DownlinkBps != down {
			t.Errorf("device %d at σ = 0: %+v, want the nominal links", id, p)
		}
	}
}
