// TCP cluster: a real-network FedSU federation in one process.
//
// Starts the TCP coordinator, dials three clients over loopback, and runs a
// distributed optimization where every synchronization decision — masks,
// speculative updates, error feedback — travels over real sockets. In
// production the coordinator and each client would be separate processes
// (see cmd/fedsu-server and cmd/fedsu-client); the protocol is identical.
//
//	go run ./examples/tcp_cluster
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"

	"fedsu"
)

const (
	numClients = 3
	dim        = 16
	rounds     = 40
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tcp_cluster:", err)
		os.Exit(1)
	}
}

// run is the whole example, reporting to w.
func run(w io.Writer) error {
	l, err := fedsu.StartCoordinator("127.0.0.1:0", numClients, dim)
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Fprintf(w, "coordinator listening on %s\n", l.Addr())

	// Every client joins before any starts round 0: a collective opened
	// while the session is still filling closes over the members it has, and
	// a late joiner then finds the session rounds ahead of it.
	var wg sync.WaitGroup
	finals := make([][]float64, numClients)
	specRounds := make([]int, numClients)
	errs := make([]error, numClients)
	train := make([]func(), numClients)
	for c := range train {
		conn, err := fedsu.DialCoordinator(l.Addr().String(), fmt.Sprintf("worker-%d", c))
		if err != nil {
			return err
		}
		defer conn.Close()
		train[c] = func() { finals[c], specRounds[c], errs[c] = runClient(conn, conn.ClientID()) }
	}
	for _, f := range train {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	wg.Wait()

	// All clients must hold the identical model after the last round.
	for c := 0; c < numClients; c++ {
		if errs[c] != nil {
			return errs[c]
		}
		for i := range finals[0] {
			if finals[0][i] != finals[c][i] {
				return fmt.Errorf("client %d diverged at parameter %d", c, i)
			}
		}
	}
	fmt.Fprintf(w, "\nall %d clients hold identical models after %d rounds over TCP\n",
		numClients, rounds)
	fmt.Fprintf(w, "speculative parameter-rounds per client: %v\n", specRounds)
	return nil
}

// runClient trains a toy model over a joined session: each client pulls the
// shared parameters toward its private target (non-IID), with the global
// optimum at the targets' mean; several coordinates drift linearly so FedSU
// has something to speculate on.
func runClient(conn fedsu.Aggregator, id int) (final []float64, specTotal int, err error) {
	mgr, err := fedsu.NewManager(id, dim, conn, fedsu.DefaultOptions())
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(int64(100 + id)))
	params := make([]float64, dim)
	target := make([]float64, dim)
	velocity := make([]float64, dim)
	for i := range target {
		target[i] = float64(id-1) + float64(i)*0.1
		if i%2 == 0 {
			velocity[i] = 0.02 * float64(i%5+1)
		}
	}

	for k := 0; k < rounds; k++ {
		local := append([]float64(nil), params...)
		for it := 0; it < 5; it++ {
			for i := range local {
				t := target[i] + velocity[i]*float64(k)
				local[i] -= 0.05 * ((local[i] - t) + 0.01*rng.NormFloat64())
			}
		}
		out, _, err := mgr.Sync(k, local, true)
		if err != nil {
			return nil, 0, err
		}
		params = out
		specTotal += mgr.PredictableCount()
	}
	return params, specTotal, nil
}
