// Corpus for the goleak analyzer in the core package: the per-round sibling
// launch of a collective leg, through a method value bound once to a
// func-typed field, as core.Manager does.
package core

import "sync"

type manager struct {
	legs    sync.WaitGroup
	res     float64
	sibling func()
	spin    func()
	mixed   func()
}

func collect() float64 { return 0 }

// runLeg is joined: the launching round waits on legs.
func (m *manager) runLeg() {
	defer m.legs.Done()
	m.res = collect()
}

// spinLeg is never observed.
func (m *manager) spinLeg() {
	m.res = collect()
}

func newManager() *manager {
	m := &manager{mixed: func() {}}
	m.sibling = m.runLeg
	m.spin = m.spinLeg
	m.mixed = m.runLeg
	return m
}

// --- negative case: a joined leg launched through its bound method value ---

func (m *manager) okJoinedField() float64 {
	m.legs.Add(1)
	go m.sibling()
	own := collect()
	m.legs.Wait()
	return own + m.res
}

// --- positive cases ---

// The same launch shape, but the bound method signals nothing.
func (m *manager) badUnjoinedField() {
	go m.spin() // want `fire-and-forget goroutine`
}

// A field assigned both a joined method and a literal that signals nothing:
// every function the field may hold must pass.
func (m *manager) badMixedField() {
	m.legs.Add(1)
	go m.mixed() // want `fire-and-forget goroutine`
	m.legs.Wait()
}

// A direct unjoined launch.
func (m *manager) badUnjoinedMethod() {
	go m.spinLeg() // want `fire-and-forget goroutine`
}

// A func value the package never assigns from a checkable function.
func badIndirect(fn func()) {
	go fn() // want `indirect call`
}
