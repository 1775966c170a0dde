package fl

import (
	"context"
	"errors"
	"testing"
	"time"
)

// refuse submits v for id and requires ErrNotMember straight away: a
// refused id must not wait on the barrier, let alone count toward it.
func refuse(t *testing.T, c *Tree, id, round int, kind string, v []float64) {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := c.aggregate(context.Background(), id, round, kind, v)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrNotMember) {
			t.Fatalf("client %d, %s round %d: err = %v, want ErrNotMember", id, kind, round, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("client %d, %s round %d: waits on the barrier instead of being refused", id, kind, round)
	}
}

// isOpen reports whether the (round, kind) collective is armed and unfinished.
func isOpen(c *Tree, round int, kind string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	col := c.cols[opKey{round: round, kind: kind}]
	return col != nil && !col.finished
}

// TestOnlyPendingMembersSubmit: on the flat collective and on the tree
// alike, a collective takes submissions from its pending roster members
// only. An id outside the roster is refused with ErrNotMember while the
// barrier is open, and so is a member resubmitting after it was evicted
// from the collective and readmitted. The barrier still waits for every
// member, and the mean is over the members that contributed.
func TestOnlyPendingMembersSubmit(t *testing.T) {
	const outsider = 5
	first, rest := faultRoster[0], faultRoster[1:]
	t.Run("outsider", func(t *testing.T) {
		forTopologies(t, func(t *testing.T, c *Tree) {
			vecs, want := faultVecs(faultRoster)
			head := launch(c, 0, "model", []int{first}, vecs)
			waitSubs(t, c, 0, "model", 1)
			refuse(t, c, outsider, 0, "model", contributionFor(outsider, 64))
			if !isOpen(c, 0, "model") {
				t.Fatal("the barrier closed before every member submitted")
			}
			results, errs := submitAll(t, c, 0, "model", rest, vecs)
			wantAll(t, "model", results, errs, want)
			results, errs = head.wait(t)
			wantAll(t, "model", results, errs, want)
		})
	})
	t.Run("readmitted", func(t *testing.T) {
		forTopologies(t, func(t *testing.T, c *Tree) {
			c.SetDeadline(40 * time.Millisecond)
			vecs, want := faultVecs(survivors())
			results, errs := submitAll(t, c, 0, "model", survivors(), vecs) // evicts faultDead
			wantAll(t, "model", results, errs, want)
			c.SetDeadline(0)

			// The error collective arms after the eviction, with the dead
			// member's rank resolved; the readmission reopens neither it
			// nor the model collective the member was evicted from.
			head := launch(c, 0, "error", []int{first}, vecs)
			waitSubs(t, c, 0, "error", 2) // first's submission and the eviction
			c.Readmit(faultDead)
			late := contributionFor(faultDead, 64)
			refuse(t, c, faultDead, 0, "model", late)
			refuse(t, c, faultDead, 0, "error", late)
			if !isOpen(c, 0, "error") {
				t.Fatal("the error barrier closed before every survivor submitted")
			}
			results, errs = submitAll(t, c, 0, "error", survivors()[1:], vecs)
			wantAll(t, "error", results, errs, want)
			results, errs = head.wait(t)
			wantAll(t, "error", results, errs, want)

			// The next round's collectives expect the readmitted member.
			vecs, want = faultVecs(faultRoster)
			c.BeginRound(1, faultRoster)
			results, errs = submitAll(t, c, 1, "model", faultRoster, vecs)
			wantAll(t, "round 1 model", results, errs, want)
		})
	})
}
