package fl

import (
	"fmt"
	"math"

	"fedsu/internal/ckpt"
	"fedsu/internal/netem"
	"fedsu/internal/sparse"
)

// Checkpoint captures what the next synchronous round reads and cannot
// recompute (see package ckpt); the fleet-shared strategy state comes from
// client 0, the local view from every client.
func (e *Engine) Checkpoint() *ckpt.Checkpoint {
	c := &ckpt.Checkpoint{
		Scheme:  e.strategy,
		Round:   e.round,
		SimTime: e.simTime,
		Model:   e.clients[0].model.Vector(),
		Loads:   append([]netem.ClientLoad(nil), e.prevLoads...),
		Shared:  sparse.AppendState(nil, e.clients[0].syncer, sparse.Shared),
	}
	for _, cl := range e.clients {
		c.Local = append(c.Local, sparse.AppendState(nil, cl.syncer, sparse.Local))
	}
	return c
}

// Restore resumes the engine from a checkpoint, so the rounds that follow
// are bit-equal to the ones the checkpointed run went on to. The scheme, the
// client count and the model layout must match, and every client's state
// must decode before anything is installed: an error leaves the engine as it
// was.
func (e *Engine) Restore(c *ckpt.Checkpoint) error {
	n := e.clients[0].model.Size()
	switch {
	case c.Scheme != "" && c.Scheme != e.strategy:
		return fmt.Errorf("fl: checkpoint scheme %q, engine scheme %q", c.Scheme, e.strategy)
	case len(c.Model) != n:
		return fmt.Errorf("fl: checkpoint model size %d, engine model size %d", len(c.Model), n)
	case len(c.Local) != len(e.clients) || (c.Loads != nil && len(c.Loads) != len(e.clients)):
		return fmt.Errorf("fl: checkpoint of %d clients (%d loads), engine of %d", len(c.Local), len(c.Loads), len(e.clients))
	case c.Round < 0 || !validTime(c.SimTime):
		return fmt.Errorf("fl: checkpoint round %d at clock %v", c.Round, c.SimTime)
	}
	for i, l := range c.Loads {
		if l.DownBytes < 0 || l.UpBytes < 0 || !validTime(l.ComputeSeconds) {
			return fmt.Errorf("fl: checkpoint load %d: %+v", i, l)
		}
	}
	installs := make([]func(), 0, 2*len(e.clients))
	for i, cl := range e.clients {
		for v, b := range [][]byte{sparse.Shared: c.Shared, sparse.Local: c.Local[i]} {
			install, err := sparse.DecodeState(cl.syncer, b, sparse.View(v), n)
			if err != nil {
				return fmt.Errorf("fl: client %d: %w", cl.ID, err)
			}
			installs = append(installs, install)
		}
	}
	for _, cl := range e.clients {
		cl.model.LoadVector(c.Model)
	}
	for _, install := range installs {
		install()
	}
	e.round, e.simTime = c.Round, c.SimTime
	e.prevLoads = append([]netem.ClientLoad(nil), c.Loads...)
	return nil
}

// validTime reports whether x is a duration: finite and not negative.
func validTime(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }
