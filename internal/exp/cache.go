package exp

import (
	"sync"
	"sync/atomic"

	"fedsu/internal/data"
)

// corpusKey identifies one immutable synthetic corpus: the stand-in family
// (Workload.DataKey), its sample count, and its generation seed.
type corpusKey struct {
	data    string
	samples int
	seed    int64
}

// partitionKey identifies one Dirichlet split of a cached corpus.
type partitionKey struct {
	corpusKey
	clients int
	alpha   float64
	seed    int64
}

// entry coalesces concurrent builds of one artifact: the first caller
// builds inside the sync.Once while later callers for the same key block
// on it and then share the finished artifact.
type entry[V any] struct {
	once sync.Once
	v    V
}

// lookup returns m's entry for key, adding an empty one on first use.
func lookup[K comparable, V any](mu *sync.Mutex, m map[K]*entry[V], key K) *entry[V] {
	mu.Lock()
	defer mu.Unlock()
	if m[key] == nil {
		m[key] = &entry[V]{}
	}
	return m[key]
}

// Artifacts is a keyed cache of the read-only inputs experiment runs share:
// synthesized datasets and their Dirichlet client partitions. Both artifact
// kinds are immutable after construction (see internal/data), so one cache
// may serve any number of concurrent runs; a grid of (workload × scheme)
// cells then synthesizes each distinct corpus exactly once instead of once
// per cell, and splits it once per (clients, alpha, seed).
//
// Determinism: Synthesize and PartitionDirichlet are pure functions of
// their key, so a cache hit returns bit-identical data to a fresh build —
// cached and uncached runs produce the same results.
type Artifacts struct {
	mu         sync.Mutex
	corpora    map[corpusKey]*entry[*data.Dataset]
	partitions map[partitionKey]*entry[[]*data.Subset]

	datasetBuilds   atomic.Int64
	partitionBuilds atomic.Int64
}

// NewArtifacts returns an empty cache.
func NewArtifacts() *Artifacts {
	return &Artifacts{
		corpora:    map[corpusKey]*entry[*data.Dataset]{},
		partitions: map[partitionKey]*entry[[]*data.Subset]{},
	}
}

// Dataset returns the cached corpus for (w.DataKey(), samples, seed),
// synthesizing it on first use. Concurrent callers with the same key
// coalesce onto one build.
func (a *Artifacts) Dataset(w Workload, samples int, seed int64) *data.Dataset {
	e := lookup(&a.mu, a.corpora, corpusKey{data: w.DataKey(), samples: samples, seed: seed})
	e.once.Do(func() {
		a.datasetBuilds.Add(1)
		e.v = w.Dataset(samples, seed)
	})
	return e.v
}

// Partition returns the memoized Dirichlet split of a cached corpus,
// computing it on first use. ds must be the dataset Dataset returned for
// (w, samples, seed) — the key is derived from those parameters, not from
// the pointer.
func (a *Artifacts) Partition(w Workload, ds *data.Dataset, samples int, dsSeed int64, clients int, alpha float64, partSeed int64) []*data.Subset {
	e := lookup(&a.mu, a.partitions, partitionKey{
		corpusKey: corpusKey{data: w.DataKey(), samples: samples, seed: dsSeed},
		clients:   clients,
		alpha:     alpha,
		seed:      partSeed,
	})
	e.once.Do(func() {
		a.partitionBuilds.Add(1)
		e.v = data.PartitionDirichlet(ds, clients, alpha, partSeed)
	})
	return e.v
}

// DatasetBuilds reports how many corpora were actually synthesized —
// the denominator for the cache's work-elimination accounting.
func (a *Artifacts) DatasetBuilds() int64 { return a.datasetBuilds.Load() }

// PartitionBuilds reports how many Dirichlet splits were actually computed.
func (a *Artifacts) PartitionBuilds() int64 { return a.partitionBuilds.Load() }
