//go:build race

package flrpc

// raceEnabled gates allocation assertions that cannot hold under the race
// detector: sync.Pool deliberately drops a fraction of Puts there to shake
// out lifetime bugs, so pooled steady states allocate by design.
const raceEnabled = true
