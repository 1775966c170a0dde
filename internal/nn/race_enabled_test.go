//go:build race

package nn

// raceEnabled reports that the race detector is on. Under it sync.Pool drops
// a quarter of what it is handed, so the arena allocates by design and
// TestTrainStepSteadyStateAllocs has nothing to pin.
const raceEnabled = true
