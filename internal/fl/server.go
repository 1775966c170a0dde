// Package fl implements the federated-learning engine: the collective
// (Algorithm 1's Central_Server — one barrier state machine, Tree, whose
// flat topology is Server), the client local-training loop, and the round
// driver that couples them with the netem timing model and a
// synchronization strategy (FedAvg, CMFL, APF, or FedSU).
package fl

import (
	"errors"
	"fmt"
)

// ErrEvicted reports that a client was evicted from the session after
// missing a collective deadline; its late submissions are rejected rather
// than corrupting a later round. Match with errors.Is.
var ErrEvicted = errors.New("evicted from session")

// EvictedError carries the evicted client's id; it unwraps to ErrEvicted.
type EvictedError struct {
	ClientID int
}

// Error implements error. Over TCP the error travels as flrpc's eviction
// status byte, which the client maps back to ErrEvicted; the text is only
// the message.
func (e *EvictedError) Error() string {
	return fmt.Sprintf("fl: client %d evicted from session (missed collective deadline)", e.ClientID)
}

// Unwrap makes errors.Is(err, ErrEvicted) hold.
func (e *EvictedError) Unwrap() error { return ErrEvicted }

// ErrNotMember refuses a submission from an id the collective is not
// waiting for: one outside its roster, or one resolved by an eviction and
// readmitted since. Match with errors.Is.
var ErrNotMember = errors.New("not a pending member of the collective")

// Server is the flat collective: the Tree (tree.go, where the barrier state
// machine is documented) whose single leaf spans the whole roster. It is
// the same type — every setter and getter of one is available on the other.
// Server is the flat constructor's name, and the alias stays because the
// benchmark program calls NewServer.
type Server = Tree

// NewServer constructs the flat collective with the roster
// {0..numClients-1}, until SetRoster declares another.
func NewServer(numClients int) *Server {
	s := newTree(0)
	ids := make([]int, numClients)
	for i := range ids {
		ids[i] = i
	}
	s.SetRoster(ids)
	return s
}

func sortInts(a []int) {
	// Insertion sort: contributor counts are small (≤ clients per round)
	// and usually nearly sorted.
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
