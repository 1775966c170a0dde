//go:build !race

package flrpc

// raceEnabled gates allocation assertions that cannot hold under the race
// detector; see race_enabled_test.go.
const raceEnabled = false
