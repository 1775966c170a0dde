package fl

import (
	"context"
	"errors"
	"testing"
	"time"

	"fedsu/internal/sparse"
)

// refuse submits v for id and requires ErrNotMember straight away: a
// refused id must not wait on the barrier, let alone count toward it.
func refuse(t *testing.T, c *Tree, id, round int, leg sparse.Leg, v []float64) {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := c.aggregate(context.Background(), leg, id, round, v)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrNotMember) {
			t.Fatalf("client %d, %s round %d: err = %v, want ErrNotMember", id, leg, round, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("client %d, %s round %d: waits on the barrier instead of being refused", id, leg, round)
	}
}

// isOpen reports whether the (round, leg) collective is armed and unfinished.
func isOpen(c *Tree, round int, leg sparse.Leg) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	col := c.cols[opKey{round: round, leg: leg}]
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
			head := launch(c, 0, sparse.ModelLeg, []int{first}, vecs)
			waitSubs(t, c, 0, sparse.ModelLeg, 1)
			refuse(t, c, outsider, 0, sparse.ModelLeg, contributionFor(outsider, 64))
			if !isOpen(c, 0, sparse.ModelLeg) {
				t.Fatal("the barrier closed before every member submitted")
			}
			results, errs := submitAll(t, c, 0, sparse.ModelLeg, rest, vecs)
			wantAll(t, "model", results, errs, want)
			results, errs = head.wait(t)
			wantAll(t, "model", results, errs, want)
		})
	})
	t.Run("readmitted", func(t *testing.T) {
		forTopologies(t, func(t *testing.T, c *Tree) {
			c.SetDeadline(40 * time.Millisecond)
			vecs, want := faultVecs(survivors())
			results, errs := submitAll(t, c, 0, sparse.ModelLeg, survivors(), vecs) // evicts faultDead
			wantAll(t, "model", results, errs, want)
			c.SetDeadline(0)

			// The error collective arms after the eviction, with the dead
			// member's rank resolved; the readmission reopens neither it
			// nor the model collective the member was evicted from.
			head := launch(c, 0, sparse.ErrorLeg, []int{first}, vecs)
			waitSubs(t, c, 0, sparse.ErrorLeg, 2) // first's submission and the eviction
			c.Readmit(faultDead)
			late := contributionFor(faultDead, 64)
			refuse(t, c, faultDead, 0, sparse.ModelLeg, late)
			refuse(t, c, faultDead, 0, sparse.ErrorLeg, late)
			if !isOpen(c, 0, sparse.ErrorLeg) {
				t.Fatal("the error barrier closed before every survivor submitted")
			}
			results, errs = submitAll(t, c, 0, sparse.ErrorLeg, survivors()[1:], vecs)
			wantAll(t, "error", results, errs, want)
			results, errs = head.wait(t)
			wantAll(t, "error", results, errs, want)

			// The next round's collectives expect the readmitted member.
			vecs, want = faultVecs(faultRoster)
			c.BeginRound(1, faultRoster)
			results, errs = submitAll(t, c, 1, sparse.ModelLeg, faultRoster, vecs)
			wantAll(t, "round 1 model", results, errs, want)
		})
	})
}

// TestRefusalTexts pins the double-submit and non-member error texts,
// which name the collective by its leg.
func TestRefusalTexts(t *testing.T) {
	s := NewServer(2)
	s.BeginRound(3, []int{0, 1})
	head := launch(s, 3, sparse.ErrorLeg, []int{0}, map[int][]float64{0: {1}})
	waitSubs(t, s, 3, sparse.ErrorLeg, 1)
	for _, tc := range []struct {
		id   int
		want string
	}{
		{0, "fl: client 0 double-submitted error collective of round 3"},
		{7, "fl: client 7 in error collective of round 3: not a pending member of the collective"},
	} {
		if _, err := s.AggregateErrorCtx(context.Background(), tc.id, 3, []float64{2}); err == nil || err.Error() != tc.want {
			t.Errorf("client %d: err = %v, want %q", tc.id, err, tc.want)
		}
	}
	results, errs := submitAll(t, s, 3, sparse.ErrorLeg, []int{1}, map[int][]float64{1: {3}})
	wantAll(t, "error", results, errs, []float64{2})
	results, errs = head.wait(t)
	wantAll(t, "error", results, errs, []float64{2})
}
