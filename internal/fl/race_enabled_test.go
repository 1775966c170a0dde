//go:build race

package fl

// raceEnabled reports that the race detector is on. Under it sync.Pool drops
// a quarter of what it is handed, so the fold allocates by design and
// TestTreeSteadyStateAllocs has nothing to pin.
const raceEnabled = true
