package sim

import "container/heap"

// heapQ is a textbook binary heap on (at, seq), the cheapest obviously
// correct event queue. Tests run it as the oracle the timing wheel's firing
// order is pinned against.
type heapQ struct {
	h eventHeap
}

func (q *heapQ) push(ev *event)   { heap.Push(&q.h, ev) }
func (q *heapQ) update(ev *event) { heap.Fix(&q.h, ev.index) }
func (q *heapQ) peek(limit Time) (Time, bool) {
	if len(q.h) == 0 || q.h[0].at > limit {
		return 0, false
	}
	return q.h[0].at, true
}
func (q *heapQ) pop() *event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}
func (q *heapQ) size() int { return len(q.h) }

// newHeapEngine returns an engine running on the heap oracle.
func newHeapEngine(seed int64) *Engine { return newEngine(seed, &heapQ{}) }
