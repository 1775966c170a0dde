package exp

import (
	"math"
	"sync"
	"testing"

	"fedsu/internal/data"
)

// TestArtifactsDatasetHitAndMiss pins the cache contract: one build per
// key, the very same *Dataset returned on every hit, distinct objects for
// distinct keys.
func TestArtifactsDatasetHitAndMiss(t *testing.T) {
	a := NewArtifacts()
	w := CNNWorkload()
	ds1 := a.Dataset(w, 64, 7)
	ds2 := a.Dataset(w, 64, 7)
	if ds1 != ds2 {
		t.Fatal("cache hit returned a different *Dataset")
	}
	if got := a.DatasetBuilds(); got != 1 {
		t.Fatalf("DatasetBuilds = %d after two lookups of one key, want 1", got)
	}
	for _, other := range []*data.Dataset{
		a.Dataset(w, 128, 7),                 // different samples
		a.Dataset(w, 64, 8),                  // different seed
		a.Dataset(DenseNetWorkload(), 64, 7), // different corpus
	} {
		if other == ds1 {
			t.Fatal("distinct key returned the cached dataset")
		}
	}
	if got := a.DatasetBuilds(); got != 4 {
		t.Fatalf("DatasetBuilds = %d, want 4", got)
	}
}

// TestArtifactsDataKeySharing checks that workloads training different
// models on the same corpus share one synthesized dataset: a second
// workload naming resnet18's FMNIST corpus gets resnet18's dataset.
func TestArtifactsDataKeySharing(t *testing.T) {
	a := NewArtifacts()
	other := Workload{Name: "other", DataName: "fmnist"}
	if a.Dataset(ResNetWorkload(), 64, 7) != a.Dataset(other, 64, 7) {
		t.Fatal("resnet18 and another fmnist workload must share the corpus")
	}
	if got := a.DatasetBuilds(); got != 1 {
		t.Fatalf("DatasetBuilds = %d, want 1", got)
	}
}

// TestArtifactsBitIdentical proves a cache hit is indistinguishable from a
// fresh build: the cached corpus and partition carry byte-for-byte the same
// samples as uncached construction.
func TestArtifactsBitIdentical(t *testing.T) {
	a := NewArtifacts()
	w := CNNWorkload()
	const samples, clients = 96, 3
	cached := a.Dataset(w, samples, 11)
	fresh := w.Dataset(samples, 11)
	if cached.Len() != fresh.Len() {
		t.Fatalf("len %d vs %d", cached.Len(), fresh.Len())
	}
	idx := make([]int, cached.Len())
	for i := range idx {
		idx[i] = i
	}
	cx, cLabels := cached.Batch(idx)
	fx, fLabels := fresh.Batch(idx)
	cd, fd := cx.Data(), fx.Data()
	for i := range cd {
		if math.Float64bits(cd[i]) != math.Float64bits(fd[i]) {
			t.Fatalf("pixel %d differs: %v vs %v", i, cd[i], fd[i])
		}
	}
	for i := range cLabels {
		if cLabels[i] != fLabels[i] {
			t.Fatalf("label %d differs", i)
		}
	}

	cachedShards := a.Partition(w, cached, samples, 11, clients, 1.0, 5)
	freshShards := data.PartitionDirichlet(fresh, clients, 1.0, 5)
	if len(cachedShards) != len(freshShards) {
		t.Fatalf("shards %d vs %d", len(cachedShards), len(freshShards))
	}
	for i := range cachedShards {
		ch, fh := cachedShards[i].LabelHistogram(), freshShards[i].LabelHistogram()
		if cachedShards[i].Len() != freshShards[i].Len() {
			t.Fatalf("shard %d size %d vs %d", i, cachedShards[i].Len(), freshShards[i].Len())
		}
		for c := range ch {
			if ch[c] != fh[c] {
				t.Fatalf("shard %d histogram differs at class %d", i, c)
			}
		}
	}
	if a.Partition(w, cached, samples, 11, clients, 1.0, 5)[0] != cachedShards[0] {
		t.Fatal("partition hit returned different shards")
	}
	if got := a.PartitionBuilds(); got != 1 {
		t.Fatalf("PartitionBuilds = %d, want 1", got)
	}
}

// TestArtifactsCoalescedBuilds hammers one key from many goroutines and
// checks the corpus was synthesized exactly once and every caller got the
// same object — the singleflight property the grid scheduler relies on
// when all cells of a workload start simultaneously.
func TestArtifactsCoalescedBuilds(t *testing.T) {
	a := NewArtifacts()
	w := CNNWorkload()
	const callers = 16
	got := make([]*data.Dataset, callers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			got[i] = a.Dataset(w, 256, 3)
		}()
	}
	start.Done()
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different dataset", i)
		}
	}
	if builds := a.DatasetBuilds(); builds != 1 {
		t.Fatalf("DatasetBuilds = %d under %d concurrent callers, want 1", builds, callers)
	}
}
