package data

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentReadSharing exercises the immutability contract the
// experiment harness's dataset cache depends on: many goroutines batch,
// sample, partition, and histogram one shared dataset at once. Run under
// -race (the race lane covers this package) it proves no method hides a
// write; the assertions additionally pin that concurrent readers observe
// identical bytes.
func TestConcurrentReadSharing(t *testing.T) {
	ds := Synthesize(SynthConfig{
		Name: "shared", Channels: 1, Size: 8, Classes: 5,
		Samples: 200, Noise: 0.2, Jitter: 1, Seed: 42,
	})
	subsets := PartitionDirichlet(ds, 4, 1.0, 7)

	refX, refLabels := ds.Batch([]int{0, 3, 9, 100})
	refSub, _ := subsets[1].Batch([]int{0, 1})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 25; iter++ {
				x, labels := ds.Batch([]int{0, 3, 9, 100})
				for i, v := range x.Data() {
					if v != refX.Data()[i] {
						t.Errorf("goroutine %d: pixel %d differs", g, i)
						return
					}
				}
				for i, l := range labels {
					if l != refLabels[i] {
						t.Errorf("goroutine %d: label %d differs", g, i)
						return
					}
				}
				sx, _ := subsets[1].Batch([]int{0, 1})
				for i, v := range sx.Data() {
					if v != refSub.Data()[i] {
						t.Errorf("goroutine %d: subset pixel %d differs", g, i)
						return
					}
				}
				// Sampling only reads the subset; the rng is goroutine-local.
				subsets[g%4].SampleBatch(rng, 6)
				subsets[g%4].LabelHistogram()
				// Re-partitioning the shared dataset must also be read-only.
				PartitionDirichlet(ds, 3, 1.0, int64(iter))
			}
		}()
	}
	wg.Wait()
}
