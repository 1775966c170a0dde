//go:build race

package main

// raceEnabled reports that the race detector is on; it slows the smoke run
// several-fold, so the time budget is checked without it.
const raceEnabled = true
