// Package fl is the engine half of the determinism corpus. The barrier
// fold is under the bit-identity contract: a collective's mean depends only
// on the submissions and their members' ranks, never on when they arrived.
// Ordering or weighting submissions by a wall-clock stamp would tie the
// mean to scheduler timing and break bit-identical seed replay. Deadline
// timers (time.AfterFunc) and duration configuration remain legal: only
// the banned environmental readers are flagged.
package fl

import "time"

// barrier mimics a collective's staging: one slot per member rank.
type barrier struct {
	staged [][]float64
}

// foldByRank sums the staged submissions in rank order, whichever landed
// first — the deterministic pattern of the real fold.
func (b *barrier) foldByRank(dst []float64) {
	for _, v := range b.staged {
		for i := range dst {
			dst[i] += v[i]
		}
	}
}

// arrivalWeight discounts a submission by how long ago it landed: the mean
// then depends on scheduler timing, not on the submissions.
func arrivalWeight(submitted time.Time) float64 {
	return 1 / (1 + time.Since(submitted).Seconds()) // want `call to time.Since in deterministic kernel package`
}

// stampSubmission reads the wall clock to order submissions by arrival:
// the same fault on the producing side.
func stampSubmission() time.Time {
	return time.Now() // want `call to time.Now in deterministic kernel package`
}

// armDeadline uses the timer machinery the barrier legitimately needs;
// time.AfterFunc is not an environmental reader and must stay unflagged.
func armDeadline(d time.Duration, expire func()) *time.Timer {
	return time.AfterFunc(d, expire)
}
