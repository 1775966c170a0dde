package fl

import "fedsu/internal/sparse/codec"

// Population is the registry of every client known to the federation —
// the 10^5–10^6 registered descriptors from which each round samples a
// cohort (client subsampling is the first-class communication knob of
// cross-device FL: most registered clients sit idle most rounds). The
// registry itself is deliberately lean — a descriptor is an id plus the
// shard size used for weighting and the profile seed netem derives a
// heterogeneous client from — so holding 10^6 of them is a few dozen
// megabytes, not a few dozen servers.
//
// # Cohort sampling determinism
//
// SampleCohort(round, k) draws k members without replacement, determined
// entirely by (population seed, round, member id):
//
//   - each member's priority for a round is an avalanche hash of
//     (seed, round, id) — no math/rand stream whose state depends on call
//     history;
//   - the cohort is the k smallest priorities, ties broken by ascending
//     id (hash collisions are astronomically rare but must not make the
//     draw depend on sort internals);
//   - therefore the draw is independent of registration order, of any
//     other round's draw, and of par worker count (nothing here is
//     parallel or order-sensitive).
//
// Distinct rounds permute the priorities independently, so cohorts vary
// round to round; within one round a member appears at most once (its
// priority is a single number). DESIGN.md §5k records this contract.
type Population struct {
	seed    int64
	members []Member
	byID    map[int]int
	sorted  bool
}

// Member is one registered client descriptor.
type Member struct {
	// ID is the stable population-wide client identifier.
	ID int
	// ShardSize is the member's local dataset size (used by weighted
	// aggregation policies and by the netem compute model).
	ShardSize int
	// ProfileSeed personalizes the member's netem profile (bandwidth,
	// compute speed); zero lets netem derive one from (seed, ID).
	ProfileSeed int64
}

// NewPopulation creates an empty registry whose cohort draws are keyed by
// seed.
func NewPopulation(seed int64) *Population {
	return &Population{seed: seed, byID: map[int]int{}}
}

// Seed returns the sampling seed the registry was created with.
func (p *Population) Seed() int64 { return p.seed }

// Register adds (or updates) a member descriptor. Registration order is
// irrelevant to sampling; re-registering an id replaces its descriptor.
func (p *Population) Register(m Member) {
	if i, ok := p.byID[m.ID]; ok {
		p.members[i] = m
		return
	}
	p.byID[m.ID] = len(p.members)
	p.members = append(p.members, m)
	p.sorted = false
}

// RegisterN bulk-registers ids 0..n-1 with uniform shard size — the
// synthetic-population path of fedsu-sim and the benchmarks.
func (p *Population) RegisterN(n, shardSize int) {
	for id := 0; id < n; id++ {
		p.Register(Member{ID: id, ShardSize: shardSize})
	}
}

// Len returns the number of registered members.
func (p *Population) Len() int { return len(p.members) }

// Member returns the descriptor for id.
func (p *Population) Member(id int) (Member, bool) {
	i, ok := p.byID[id]
	if !ok {
		return Member{}, false
	}
	return p.members[i], true
}

// SampleCohort draws the round's cohort: the k registered ids with the
// smallest (seed, round, id) hash priorities, returned in ascending id
// order (the roster order the aggregation tier ranks by). k larger than
// the population returns everyone. The draw is deterministic given
// (seed, round) and independent of registration order and worker count.
func (p *Population) SampleCohort(round, k int) []int {
	n := len(p.members)
	if k >= n {
		out := make([]int, 0, n)
		for _, m := range p.members {
			out = append(out, m.ID)
		}
		sortInts(out)
		return out
	}
	if k <= 0 {
		return nil
	}
	// Selection by bounded max-heap over (priority, id): O(n log k) with
	// no allocation beyond the result — at 10^6 members and k=10^3 this is
	// the difference between a draw and a sort of the whole registry.
	type cand struct {
		pri uint64
		id  int
	}
	heap := make([]cand, 0, k)
	worse := func(a, b cand) bool { // is a worse (greater) than b?
		return a.pri > b.pri || (a.pri == b.pri && a.id > b.id)
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(heap) && worse(heap[l], heap[big]) {
				big = l
			}
			if r < len(heap) && worse(heap[r], heap[big]) {
				big = r
			}
			if big == i {
				return
			}
			heap[i], heap[big] = heap[big], heap[i]
			i = big
		}
	}
	for _, m := range p.members {
		c := cand{pri: cohortPriority(p.seed, round, m.ID), id: m.ID}
		if len(heap) < k {
			heap = append(heap, c)
			for i := len(heap) - 1; i > 0; {
				parent := (i - 1) / 2
				if !worse(heap[i], heap[parent]) {
					break
				}
				heap[i], heap[parent] = heap[parent], heap[i]
				i = parent
			}
			continue
		}
		if worse(heap[0], c) {
			heap[0] = c
			siftDown(0)
		}
	}
	out := make([]int, len(heap))
	for i, c := range heap {
		out[i] = c.id
	}
	sortInts(out)
	return out
}

// cohortPriority hashes (seed, round, id) with the splitmix64 finalizer
// over the combined key: a fixed bijection of the key, so equal priorities
// imply equal (round, id) for a given seed, and every bit of the key
// diffuses into the priority.
func cohortPriority(seed int64, round, id int) uint64 {
	x := uint64(seed)
	x ^= uint64(round)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	x ^= uint64(uint32(id)) * 0xd1342543de82ef95
	return codec.Mix64(x)
}
