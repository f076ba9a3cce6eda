package sim

// Queue is an unbounded FIFO mailbox connecting simulation processes (and
// event callbacks, which may Put without blocking, and take items with a
// Getter). Gets block until an item is available; items are delivered in
// insertion order and each item goes to exactly one getter.
//
// Storage is a slice with a moving head index rather than a re-sliced
// front: the backing array is reused once the queue drains, so a
// steady-state put/get cycle performs no allocation.
type Queue[T any] struct {
	eng   *Engine
	name  string
	items []T
	head  int
	cond  *Cond
}

// NewQueue returns an empty queue named name.
func NewQueue[T any](eng *Engine, name string) *Queue[T] {
	return &Queue[T]{eng: eng, name: name, cond: NewCond(eng)}
}

// Put appends v and wakes one waiting getter, if any. Put never blocks and
// may be called from event callbacks as well as processes.
func (q *Queue[T]) Put(v T) {
	q.items = append(q.items, v)
	q.cond.Signal()
}

// pop removes and returns the head item. Callers must ensure the queue is
// non-empty.
func (q *Queue[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// Get removes and returns the oldest item, blocking p until one exists.
func (q *Queue[T]) Get(p *Proc) T {
	for q.Len() == 0 {
		q.cond.Wait(p)
	}
	return q.pop()
}

// GetTimeout is like Get but gives up after d, reporting ok=false.
func (q *Queue[T]) GetTimeout(p *Proc, d Time) (v T, ok bool) {
	deadline := q.eng.Now() + d
	for q.Len() == 0 {
		remain := deadline - q.eng.Now()
		if remain <= 0 || !q.cond.WaitTimeout(p, remain) {
			if q.Len() > 0 {
				break // an item arrived exactly at the deadline
			}
			return v, false
		}
	}
	return q.Get(p), true
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	return q.pop(), true
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// A Getter takes items from a Queue in a process's place, as a
// continuation (see Waiter): what a process blocked in Get would do next,
// got does, in event context.
type Getter[T any] struct {
	q   *Queue[T]
	got func(T)
	w   *Waiter
}

// NewGetter returns a continuation getter on q that hands each item it
// takes to got.
func (q *Queue[T]) NewGetter(got func(T)) *Getter[T] {
	g := &Getter[T]{q: q, got: got}
	g.w = NewWaiter(g.Get)
	return g
}

// Get takes the oldest item for got: before Get returns when one is
// queued, otherwise from the event that would have resumed a process
// waiting in Queue.Get in its place, in its turn among the queue's
// getters of both kinds.
func (g *Getter[T]) Get() {
	if g.q.Len() == 0 {
		g.q.cond.WaitFn(g.w)
		return
	}
	g.got(g.q.pop())
}

// Cancel withdraws a waiting Get (Waiter.Cancel). Whatever it has not
// taken stays queued.
func (g *Getter[T]) Cancel() { g.w.Cancel() }
