package netem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMbps(t *testing.T) {
	if got := Mbps(8); got != 1e6 {
		t.Errorf("Mbps(8) = %v bytes/s, want 1e6", got)
	}
}

func TestNewClusterValidation(t *testing.T) {
	tests := []struct {
		name string
		mod  func(*Config)
	}{
		{"zero-clients", func(c *Config) { c.NumClients = 0 }},
		{"bad-participation", func(c *Config) { c.Participation = 0 }},
		{"participation-above-one", func(c *Config) { c.Participation = 1.5 }},
		{"zero-uplink", func(c *Config) { c.ClientUplinkMbps = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(8)
			tt.mod(&cfg)
			if _, err := NewCluster(cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestRoundTimingDominatedByTransfer(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.ComputeHeterogeneity = 0
	cfg.RoundJitter = 0
	cfg.LatencySeconds = 0
	cfg.Participation = 1
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 13.7 Mbps = 1.7125e6 B/s. 1.7125 MB up+down → exactly 2 s transfer.
	bytes := int(Mbps(13.7))
	out := c.Round(0, c.UniformLoad(bytes, bytes, 1))
	want := 3.0 // 1 s down + 1 s compute + 1 s up
	if math.Abs(out.Duration-want) > 1e-9 {
		t.Errorf("Duration = %v, want %v", out.Duration, want)
	}
}

func TestRoundParticipationQuorum(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.Participation = 0.7
	cfg.ComputeHeterogeneity = 0
	cfg.RoundJitter = 0
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loads := c.UniformLoad(0, 0, 1)
	// Make clients 7, 8, 9 much slower; they must be excluded.
	for i := 7; i < 10; i++ {
		loads[i].ComputeSeconds = 100
	}
	out := c.Round(0, loads)
	if len(out.Participants) != 7 {
		t.Fatalf("participants = %d, want 7", len(out.Participants))
	}
	for _, p := range out.Participants {
		if p >= 7 {
			t.Errorf("slow client %d included in quorum", p)
		}
	}
	if out.Duration > 50 {
		t.Errorf("round waited for stragglers: %v s", out.Duration)
	}
}

// Property: smaller payloads never yield a longer round.
func TestRoundMonotoneInPayload(t *testing.T) {
	f := func(seed int64, kb uint16) bool {
		cfg := DefaultConfig(6)
		cfg.Seed = seed
		cfg.RoundJitter = 0
		small, err := NewCluster(cfg)
		if err != nil {
			return false
		}
		big, err := NewCluster(cfg)
		if err != nil {
			return false
		}
		b := int(kb) * 100
		outSmall := small.Round(0, small.UniformLoad(b, b, 1))
		outBig := big.Round(0, big.UniformLoad(b*2+100, b*2+100, 1))
		return outSmall.Duration <= outBig.Duration+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestServerBandwidthSharing(t *testing.T) {
	// With a tiny server link the server share, not the client link,
	// bounds transfers.
	cfg := DefaultConfig(10)
	cfg.ServerBandwidthMbps = 13.7 // shared across 10 clients → 1.37 each
	cfg.ComputeHeterogeneity = 0
	cfg.RoundJitter = 0
	cfg.LatencySeconds = 0
	cfg.Participation = 1
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bytes := int(Mbps(1.37)) // 1 s at the shared rate
	out := c.Round(0, c.UniformLoad(bytes, 0, 0))
	if math.Abs(out.Duration-1) > 1e-6 {
		t.Errorf("Duration = %v, want 1 (server-share bound)", out.Duration)
	}
}

func TestHeterogeneityDeterministicPerSeed(t *testing.T) {
	cfg := DefaultConfig(8)
	a, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oa := a.Round(0, a.UniformLoad(1000, 1000, 1))
	ob := b.Round(0, b.UniformLoad(1000, 1000, 1))
	if oa.Duration != ob.Duration {
		t.Error("same seed must give identical timing")
	}
}

func TestComputeModelCalibration(t *testing.T) {
	m := DefaultComputeModel()
	// ResNet-18-scale: 11.7 M params × 50 iters ≈ 70 s nominal.
	got := m.RoundCompute(11_700_000, 50)
	if got < 50 || got > 90 {
		t.Errorf("ResNet compute = %v s, want ≈70 s", got)
	}
	if m.RoundCompute(0, 50) != 0 {
		t.Error("zero params must cost zero compute")
	}
}

func TestClientTimesComplete(t *testing.T) {
	cfg := DefaultConfig(5)
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := c.Round(0, c.UniformLoad(100, 100, 0.5))
	if len(out.ClientTimes) != 5 {
		t.Fatalf("ClientTimes length = %d, want 5", len(out.ClientTimes))
	}
	for i, ct := range out.ClientTimes {
		if ct <= 0 {
			t.Errorf("client %d time = %v, want positive", i, ct)
		}
	}
}
