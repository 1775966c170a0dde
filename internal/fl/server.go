// Package fl implements the federated-learning engine: the collective
// (Algorithm 1's Central_Server — one barrier state machine, Tree, whose
// flat topology is Server and whose buffered-async discipline bypasses the
// barrier), the client local-training loop, and the round driver that
// couples them with the netem timing model and a synchronization strategy
// (FedAvg, CMFL, APF, or FedSU).
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

// Error implements error. The "evicted from session" marker is part of the
// wire contract: net/rpc flattens errors to strings, and flrpc recovers
// the typed error by matching it.
func (e *EvictedError) Error() string {
	return fmt.Sprintf("fl: client %d evicted from session (missed collective deadline)", e.ClientID)
}

// Unwrap makes errors.Is(err, ErrEvicted) hold.
func (e *EvictedError) Unwrap() error { return ErrEvicted }

// Server is the flat collective: the Tree (tree.go, where the barrier state
// machine is documented) whose single leaf spans the whole roster. It is
// the same type — every setter and getter of one is available on the other
// — and the only things the flat topology has to itself are the implied
// roster {0..n-1}, stray contributions (one spanning leaf can refold them
// in id order; aligned blocks cannot rank them) and the buffered-async
// discipline of server_async.go, which bypasses barriers altogether.
type Server = Tree

// NewServer constructs the flat collective expecting submissions from
// clients {0..numClients-1} per barrier, until SetRoster declares another
// roster.
func NewServer(numClients int) *Server {
	s := newTree(0)
	s.SetNumClients(numClients)
	return s
}

// SetNumClients declares the implied roster {0..n-1}, used when clients
// join or leave between rounds. Unlike SetRoster it keeps evicted ids in
// their rank slots (resolved as skips at every barrier), so Readmit takes
// effect at the next collective without a roster call. It must not be
// called while a round's collectives are in flight.
func (t *Tree) SetNumClients(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roster = t.roster[:0]
	for id := 0; id < n; id++ {
		t.roster = append(t.roster, id)
	}
	t.rankRosterLocked()
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
