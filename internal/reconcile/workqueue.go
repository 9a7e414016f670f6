package reconcile

import "cloudmcp/internal/sim"

// The deduplicating workqueue. Semantics follow the controller-runtime
// lineage the reconciliation plane models: adding a key that is already
// queued coalesces into the pending entry (one list churn, one
// reconciliation), while adding a key that is currently being processed
// marks it dirty so it runs exactly once more after the in-flight pass
// finishes — an observation that arrives mid-reconcile must not be lost,
// and must not run concurrently with itself either.

// itemState tracks a key's position in the queue lifecycle. Keys absent
// from the state map are idle.
type itemState int

const (
	stateQueued itemState = iota + 1
	stateProcessing
	stateDirty // re-added while processing: requeue when Done
)

// QueueStats counts workqueue activity.
type QueueStats struct {
	Adds     int64 // keys accepted onto the queue
	Dedups   int64 // adds coalesced into an already-pending key
	Requeues int64 // keys put back by Done after a mid-process re-add
}

// Queue is a deduplicating FIFO work queue over string keys, built on
// the kernel's deterministic blocking queue so worker wake-up order is
// part of the reproducible event sequence.
type Queue struct {
	fifo  *sim.Queue[string]
	state map[string]itemState
	stats QueueStats
}

// NewQueue builds an empty workqueue.
func NewQueue(env *sim.Env) *Queue {
	return &Queue{fifo: sim.NewQueue[string](env), state: make(map[string]itemState)}
}

// Add enqueues key unless it is already pending. A key under processing
// is marked dirty and will be re-queued by Done.
func (q *Queue) Add(key string) {
	switch q.state[key] {
	case stateQueued, stateDirty:
		q.stats.Dedups++
	case stateProcessing:
		q.state[key] = stateDirty
	default:
		q.state[key] = stateQueued
		q.stats.Adds++
		q.fifo.Put(key)
	}
}

// Get blocks p until a key is ready and marks it processing. Every Get
// must be paired with a Done.
func (q *Queue) Get(p *sim.Proc) string {
	key := q.fifo.Get(p)
	q.state[key] = stateProcessing
	return key
}

// Done ends key's processing. A key re-added while it was being
// processed goes straight back on the queue; otherwise it returns to
// idle and the next Add enqueues it afresh.
func (q *Queue) Done(key string) {
	if q.state[key] == stateDirty {
		q.state[key] = stateQueued
		q.stats.Requeues++
		q.fifo.Put(key)
		return
	}
	delete(q.state, key)
}

// Len returns the number of ready (not in-process) keys.
func (q *Queue) Len() int { return q.fifo.Len() }

// Stats returns accumulated queue activity.
func (q *Queue) Stats() QueueStats { return q.stats }
