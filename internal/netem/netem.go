// Package netem provides the emulated federated-learning cluster timing
// model that stands in for the paper's EC2 testbed (128 c6i.large clients
// throttled to 13.7 Mbps with wondershaper, one c5a.8xlarge server on a
// 10 Gbps link).
//
// The model is analytic: a round's wall-clock duration is computed from the
// bytes each client actually transfers and the configured link capacities,
// plus heterogeneous local compute time. Round completion follows the
// paper's participation rule — the server proceeds once the earliest
// fraction (70 %) of clients has returned.
package netem

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Mbps converts megabits per second to bytes per second.
func Mbps(m float64) float64 { return m * 1e6 / 8 }

// Config describes the emulated cluster.
type Config struct {
	// NumClients is the number of FL client devices.
	NumClients int
	// ClientUplinkMbps and ClientDownlinkMbps are each client's access-link
	// capacities; the paper sets both to 13.7 Mbps following FedScale.
	ClientUplinkMbps   float64
	ClientDownlinkMbps float64
	// ServerBandwidthMbps is the server's aggregate link capacity
	// (10 Gbps in the paper).
	ServerBandwidthMbps float64
	// LatencySeconds is the per-transfer one-way propagation delay.
	LatencySeconds float64
	// Participation is the fraction of earliest-returning clients the
	// server waits for before closing a round (0.7 in the paper).
	Participation float64
	// ComputeHeterogeneity is the relative spread of per-client compute
	// speed (0.3 means speeds uniform in [0.7, 1.3] of nominal).
	ComputeHeterogeneity float64
	// RoundJitter is the per-round multiplicative compute noise.
	RoundJitter float64
	// Seed drives the deterministic heterogeneity and jitter draws.
	Seed int64
}

// DefaultConfig returns the paper's testbed parameters.
func DefaultConfig(numClients int) Config {
	return Config{
		NumClients:           numClients,
		ClientUplinkMbps:     13.7,
		ClientDownlinkMbps:   13.7,
		ServerBandwidthMbps:  10_000,
		LatencySeconds:       0.02,
		Participation:        0.7,
		ComputeHeterogeneity: 0.2,
		RoundJitter:          0.05,
		Seed:                 1,
	}
}

// Cluster is an instantiated timing model.
type Cluster struct {
	cfg    Config
	speeds []float64 // per-client compute-speed multiplier (1 = nominal)
}

// NewCluster builds a cluster from the config, drawing each client's
// compute-speed multiplier deterministically from the seed.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.NumClients <= 0 {
		return nil, fmt.Errorf("netem: NumClients = %d", cfg.NumClients)
	}
	if cfg.Participation <= 0 || cfg.Participation > 1 {
		return nil, fmt.Errorf("netem: Participation = %v outside (0, 1]", cfg.Participation)
	}
	if cfg.ClientUplinkMbps <= 0 || cfg.ClientDownlinkMbps <= 0 || cfg.ServerBandwidthMbps <= 0 {
		return nil, fmt.Errorf("netem: non-positive bandwidth in %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	speeds := make([]float64, cfg.NumClients)
	for i := range speeds {
		speeds[i] = 1 + cfg.ComputeHeterogeneity*(2*rng.Float64()-1)
	}
	return &Cluster{cfg: cfg, speeds: speeds}, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// ClientLoad describes one client's activity during a round.
type ClientLoad struct {
	// DownBytes and UpBytes are the payload sizes transferred this round.
	DownBytes, UpBytes int
	// ComputeSeconds is the nominal local-training time at unit speed.
	ComputeSeconds float64
}

// RoundOutcome reports the emulated timing of one round.
type RoundOutcome struct {
	// Duration is the wall-clock span until the participation quorum
	// returned.
	Duration float64
	// Participants lists the client ids whose uploads the server accepted
	// (the earliest fraction), in ascending completion-time order.
	Participants []int
	// ClientTimes holds every client's individual completion time.
	ClientTimes []float64
}

// Round evaluates the timing model for the given round. loads must have one
// entry per client. Per-client time is
//
//	download + compute/speed·jitter + upload + 2·latency,
//
// where transfer times are bounded by both the client access link and the
// client's fair share of the server link. The round closes when the
// earliest ⌈participation·N⌉ clients have finished; the quorum is never
// below one, so every round has a participant. A client's jitter draw
// hashes (seed, client, round), as the population model's do, so a round's
// outcome does not depend on which rounds this cluster timed before it.
func (c *Cluster) Round(round int, loads []ClientLoad) RoundOutcome {
	if len(loads) != c.cfg.NumClients {
		panic(fmt.Sprintf("netem: Round got %d loads for %d clients", len(loads), c.cfg.NumClients))
	}
	n := c.cfg.NumClients
	// Fair-share server capacity: concurrent transfers divide the server
	// link. With n simultaneous clients each gets at least serverBW/n.
	serverShare := Mbps(c.cfg.ServerBandwidthMbps) / float64(n)

	times := make([]float64, n)
	order := make([]int, n)
	for i, l := range loads {
		// Stream "fleetjit".
		jitter := 1 + c.cfg.RoundJitter*(2*hashUnit(c.cfg.Seed, 0x666c6565746a6974, uint64(i), uint64(round))-1)
		down := minf(Mbps(c.cfg.ClientDownlinkMbps), serverShare)
		up := minf(Mbps(c.cfg.ClientUplinkMbps), serverShare)
		times[i] = float64(l.DownBytes)/down +
			l.ComputeSeconds/c.speeds[i]*jitter +
			float64(l.UpBytes)/up +
			2*c.cfg.LatencySeconds
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return times[order[a]] < times[order[b]] })

	quorum := quorumSize(n, c.cfg.Participation)
	participants := append([]int(nil), order[:quorum]...)
	return RoundOutcome{
		Duration:     times[participants[quorum-1]],
		Participants: participants,
		ClientTimes:  times,
	}
}

// UniformLoad builds identical loads for every client, the common case when
// all clients transfer the same sparsified payload.
func (c *Cluster) UniformLoad(downBytes, upBytes int, computeSeconds float64) []ClientLoad {
	loads := make([]ClientLoad, c.cfg.NumClients)
	for i := range loads {
		loads[i] = ClientLoad{DownBytes: downBytes, UpBytes: upBytes, ComputeSeconds: computeSeconds}
	}
	return loads
}

// quorumTie is the absolute snap distance for quorum rounding: a product
// participation·n within quorumTie of an integer is treated AS that integer
// (the tie policy). This absorbs float64 representation error in fractions
// like 0.7·10, where the binary product lands at 6.999999999999999 and a
// naive Ceil would demand 7→7 but a fudge-factor like the historical
// `+0.999999` could push 64·0.015625 = 1.0 up to 2, over-counting — or,
// worse, products within 1e-6 *below* an integer could slip under the fudge
// and under-count the quorum by one.
const quorumTie = 1e-6

// quorumSize is the participation quorum: the smallest count of clients
// that covers fraction p of n, i.e. ⌈p·n⌉ with ties snapped to the nearest
// integer (quorumTie policy) and a floor of one client.
func quorumSize(n int, p float64) int {
	x := float64(n) * p
	if r := math.Round(x); math.Abs(x-r) <= quorumTie {
		x = r
	}
	q := int(math.Ceil(x))
	if q < 1 {
		q = 1
	}
	if q > n {
		q = n
	}
	return q
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// ComputeModel estimates nominal local-training seconds per round for a
// model of the given parameter count, calibrated so the paper's workloads
// land near the paper's compute times (e.g. ResNet-18's 11.7 M parameters
// with 50 iterations of batch 32 ≈ 70 s of client compute on a
// 2-vCPU device).
type ComputeModel struct {
	// SecondsPerParamIter is the per-parameter per-iteration cost.
	SecondsPerParamIter float64
}

// DefaultComputeModel returns a calibration matching the paper's observed
// per-round compute times on c6i.large-class hardware.
func DefaultComputeModel() ComputeModel {
	// 11.7e6 params × 50 iters × k ≈ 70 s → k ≈ 1.2e-7.
	return ComputeModel{SecondsPerParamIter: 1.2e-7}
}

// RoundCompute returns nominal seconds for localIters iterations over a
// model with paramCount parameters.
func (m ComputeModel) RoundCompute(paramCount, localIters int) float64 {
	return m.SecondsPerParamIter * float64(paramCount) * float64(localIters)
}
