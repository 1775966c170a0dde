package netem

import "testing"

func TestDropoutExcludesClients(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.DropoutProb = 0.3
	cfg.Participation = 1 // quorum = everyone alive
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := c.Round(0, c.UniformLoad(100, 100, 1))
	if len(out.Participants) == 100 {
		t.Error("30% dropout should exclude some clients")
	}
	if len(out.Participants) < 40 {
		t.Errorf("dropout excluded %d of 100, far beyond 30%%", 100-len(out.Participants))
	}
}

func TestDropoutZeroIsNoop(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.Participation = 1
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := c.Round(0, c.UniformLoad(10, 10, 1))
	if len(out.Participants) != 10 {
		t.Errorf("no dropout: participants = %d, want 10", len(out.Participants))
	}
}

func TestTotalDropoutYieldsEmptyRound(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.DropoutProb = 1
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := c.Round(0, c.UniformLoad(10, 10, 1))
	if len(out.Participants) != 0 {
		t.Errorf("total dropout: participants = %d, want 0", len(out.Participants))
	}
	if out.Duration <= 0 {
		t.Error("wasted round must still consume time")
	}
}
