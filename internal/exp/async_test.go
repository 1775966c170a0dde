package exp

import (
	"context"
	"fmt"
	"testing"
)

// TestRunAsyncCompareSmoke runs the three-arm sync/async/async-event
// comparison at micro scale: all arms complete, every mode reports a
// non-empty accuracy series over nondecreasing emulated time, and the
// async arms account their staleness drops. The seeds are the ones on
// which the async-event arm used to stall at microConfig's width: an
// event-gated client that abstained reloaded the unchanged global, so once
// every client's one-cycle drift sat under the arm's threshold the buffer
// never filled. An abstention with a current pull now gets nil and keeps
// its local progress, so drift accumulates until the client contributes.
func TestRunAsyncCompareSmoke(t *testing.T) {
	for _, seed := range []int64{1, 2, 4, 5, 8} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := microConfig()
			cfg.Rounds = 4
			cfg.Seed = seed
			checkAsyncCompare(t, cfg)
		})
	}
}

func checkAsyncCompare(t *testing.T, cfg Config) {
	res, err := RunAsyncCompare(context.Background(), Harness{}, cfg, CNNWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload.Name != "cnn" {
		t.Fatalf("workload = %q", res.Workload.Name)
	}
	for i, c := range res.Cells {
		mode, run := c.Label, res.Runs[i]
		s := run.AccuracyCurve(mode)
		if s.Len() == 0 {
			t.Fatalf("%s: empty accuracy series", mode)
		}
		prev := -1.0
		for _, x := range s.X {
			if x < prev {
				t.Fatalf("%s: emulated time went backwards (%v after %v)", mode, x, prev)
			}
			prev = x
		}
		if secs, _, _ := run.TimeToAccuracy(res.Workload.TargetAccuracy); secs <= 0 {
			t.Errorf("%s: time to target = %v, want > 0", mode, secs)
		}
		if up, _ := run.Traffic(); up <= 0 {
			t.Errorf("%s: uplink bytes = %v, want > 0", mode, up)
		}
		if acc := run.FinalAccuracy(); acc <= 0 || acc > 1 {
			t.Errorf("%s: FinalAccuracy = %v out of (0, 1]", mode, acc)
		}
	}
	for _, st := range res.Lookup("cnn", "sync").Stats {
		if st.StaleDrops != 0 {
			t.Errorf("sync arm reported %d stale drops in round %d", st.StaleDrops, st.Round)
		}
	}

	if render(t, res.Report()) == "" {
		t.Fatal("empty report")
	}
}

// TestRunAsyncCompareRejectsSingleClient: the comparison is meaningless
// (and asyncK degenerate) below two clients.
func TestRunAsyncCompareRejectsSingleClient(t *testing.T) {
	cfg := microConfig()
	cfg.Clients = 1
	if _, err := RunAsyncCompare(context.Background(), Harness{}, cfg, CNNWorkload()); err == nil {
		t.Fatal("single-client comparison accepted")
	}
}

// TestHeterogeneousNetemProfile pins the comparison's population shape so
// result churn from profile edits is deliberate.
func TestHeterogeneousNetemProfile(t *testing.T) {
	c := HeterogeneousNetem(8, 42)
	if c.NumClients != 8 || c.Seed != 42 {
		t.Fatalf("clients/seed = %d/%d", c.NumClients, c.Seed)
	}
	if c.ComputeHeterogeneity <= 0 || c.BandwidthSigma <= 0 || c.DropoutProb <= 0 {
		t.Fatal("profile is not heterogeneous")
	}
}

func TestAsyncK(t *testing.T) {
	for _, tc := range []struct{ clients, want int }{{1, 1}, {2, 1}, {3, 1}, {8, 4}, {9, 4}} {
		if got := asyncK(tc.clients); got != tc.want {
			t.Errorf("asyncK(%d) = %d, want %d", tc.clients, got, tc.want)
		}
	}
}
