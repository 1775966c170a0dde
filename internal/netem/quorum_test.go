package netem

import "testing"

// quorumOracle computes ⌈n·(a/b)⌉ in exact integer arithmetic, the ground
// truth the float64 quorumSize must match for every rational participation.
func quorumOracle(n, a, b int) int {
	q := (n*a + b - 1) / b
	if q < 1 {
		q = 1
	}
	if q > n {
		q = n
	}
	return q
}

// TestQuorumSizeMatchesRationalOracle sweeps an n × Participation grid of
// exact rationals — including every fraction whose float64 product lands
// within representation error of an integer (e.g. 0.7·10, 0.3·30) — and
// checks the float computation against integer arithmetic. The historical
// `int(x + 0.999999)` fudge both over-counted exact products by one and
// under-counted products landing ≥ 1e-6 below an integer.
func TestQuorumSizeMatchesRationalOracle(t *testing.T) {
	for n := 1; n <= 400; n++ {
		for b := 1; b <= 20; b++ {
			for a := 1; a <= b; a++ {
				p := float64(a) / float64(b)
				got := quorumSize(n, p)
				want := quorumOracle(n, a, b)
				if got != want {
					t.Fatalf("quorumSize(%d, %d/%d = %g) = %d, want %d", n, a, b, p, got, want)
				}
			}
		}
	}
}

// TestQuorumSizeTiePolicy pins the explicit tie policy: a product within
// 1e-6 of an integer snaps TO that integer (absorbing float representation
// error in either direction), while a product a clear margin above an
// integer ceils up.
func TestQuorumSizeTiePolicy(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		// Exact products (the fudge factor's over-count regime): 64·(1/64)=1.
		{64, 1.0 / 64, 1},
		{128, 0.5, 64},
		{10, 0.7, 7},   // 6.999999999999999 in float64 — must snap to 7, not ceil to 7 via luck
		{30, 0.3, 9},   // 9.000000000000002 in float64 — must snap to 9, not ceil to 10
		{100, 0.07, 7}, // 7.000000000000001
		// Within the 1e-6 snap window from below: treated as the integer.
		{100, (7 - 5e-7) / 100, 7},
		// Within the snap window from above: snapped DOWN to the integer,
		// not ceiled to the next.
		{100, (7 + 5e-7) / 100, 7},
		// A clear margin above an integer: genuine ceil.
		{100, (7 + 1e-3) / 100, 8},
		// Floor of one client and cap at n.
		{5, 0.01, 1},
		{5, 1.0, 5},
	}
	for _, c := range cases {
		if got := quorumSize(c.n, c.p); got != c.want {
			t.Errorf("quorumSize(%d, %v) = %d, want %d (product %v)", c.n, c.p, got, c.want, float64(c.n)*c.p)
		}
	}
}

// TestRoundQuorumNeverUnderCounts re-checks through the public Round path:
// the participant count must be exactly ⌈P·n⌉ for the
// near-integer participations the fudge factor used to mishandle.
func TestRoundQuorumNeverUnderCounts(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{{10, 0.7, 7}, {30, 0.3, 9}, {64, 0.015625, 1}, {128, 0.7, 90}, {10, 1, 10}} {
		cfg := DefaultConfig(tc.n)
		cfg.Participation = tc.p
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := cl.Round(0, cl.UniformLoad(1000, 1000, 1))
		if len(out.Participants) != tc.want {
			t.Errorf("n=%d P=%v: %d participants, want %d", tc.n, tc.p, len(out.Participants), tc.want)
		}
	}
}

// TestRoundAlwaysHasAParticipant: the quorum floor is one, so however small
// the participation, a round of any fleet size admits its earliest client
// and never closes empty.
func TestRoundAlwaysHasAParticipant(t *testing.T) {
	for n := 1; n <= 64; n++ {
		cfg := DefaultConfig(n)
		cfg.Participation = 1e-9
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := cl.Round(3, cl.UniformLoad(1000, 1000, 1))
		if len(out.Participants) != 1 {
			t.Fatalf("n=%d: %d participants, want 1", n, len(out.Participants))
		}
		first := out.Participants[0]
		for i, v := range out.ClientTimes {
			if v < out.ClientTimes[first] {
				t.Fatalf("n=%d: admitted client %d, but client %d finished first", n, first, i)
			}
		}
	}
}
