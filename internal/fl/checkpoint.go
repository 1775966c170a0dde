package fl

import (
	"fmt"

	"fedsu/internal/ckpt"
	"fedsu/internal/core"
	"fedsu/internal/sparse"
)

// Checkpoint captures the engine's resumable state: the global model, the
// round counter, and the FedSU manager state when the active strategy is
// FedSU. The optimizer carries no state: clients train with plain SGD +
// weight decay, the paper's setup (an LRDecayWarm schedule's step count
// restarts on restore).
func (e *Engine) Checkpoint() *ckpt.Checkpoint {
	c := &ckpt.Checkpoint{
		Scheme: e.strategy,
		Round:  e.round,
		Model:  e.clients[0].model.Vector(),
	}
	if mgr, ok := sparse.UnwrapSyncer(e.clients[0].syncer).(*core.Manager); ok {
		c.Manager = mgr.Snapshot()
	}
	return c
}

// Restore rewinds the engine to a checkpoint: every client loads the model
// vector, FedSU managers restore their mask state, and the round counter
// resumes. The client set and model layout must match the checkpoint.
func (e *Engine) Restore(c *ckpt.Checkpoint) error {
	if len(c.Model) != e.clients[0].model.Size() {
		return fmt.Errorf("fl: checkpoint model size %d, engine model size %d",
			len(c.Model), e.clients[0].model.Size())
	}
	if c.Scheme != "" && c.Scheme != e.strategy {
		return fmt.Errorf("fl: checkpoint scheme %q, engine scheme %q", c.Scheme, e.strategy)
	}
	for _, cl := range e.clients {
		cl.model.LoadVector(c.Model)
		if c.Manager != nil {
			mgr, ok := sparse.UnwrapSyncer(cl.syncer).(*core.Manager)
			if !ok {
				return fmt.Errorf("fl: checkpoint carries FedSU state but client %d runs %s",
					cl.ID, cl.syncer.Name())
			}
			if err := mgr.Restore(c.Manager); err != nil {
				return fmt.Errorf("fl: client %d: %w", cl.ID, err)
			}
		}
	}
	e.round = c.Round
	e.prevLoads = nil
	return nil
}
