package main

import (
	"io"
	"testing"
	"time"
)

// TestRunRepeatedly runs the example's body twenty times under one 30 s
// deadline. Before every client was dialed ahead of round 0, about half the
// runs ended in a stale-round error or hung on a barrier the session had
// already closed.
func TestRunRepeatedly(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if err := run(io.Discard); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("20 runs of the example did not finish in 30 s")
	}
}
