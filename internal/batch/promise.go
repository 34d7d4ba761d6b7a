package batch

import "sync"

// flusher is the part of a Pipeline a Promise needs: Wait on a promise
// whose operation is still buffered must force the buffer out instead
// of deadlocking.
type flusher interface {
	Flush()
}

// Promise is a lightweight future for one asynchronous operation. The
// zero value is not usable; promises are created by a Pipeline when an
// operation is enqueued and completed exactly once when its batch
// executes.
//
// Wait blocks until the result is available — flushing the owning
// pipeline first if the operation is still buffered, so waiting on an
// unflushed op completes instead of deadlocking — and is idempotent:
// every call returns the same result. OnComplete registers a callback
// instead; callbacks run on the goroutine that completes the promise
// (or immediately, on the caller, if it already completed) and must
// not call back into the owning pipeline.
type Promise[T any] struct {
	fl flusher

	mu     sync.Mutex
	done   chan struct{} // lazily created by a Wait that must block
	val    T
	filled bool
	cbs    []func(T)
}

func newPromise[T any](fl flusher) *Promise[T] {
	return &Promise[T]{fl: fl}
}

// complete fulfills the promise. Must be called at most once, and never
// while the completing goroutine holds the owning pipeline's lock (a
// callback may Wait on another promise of the same pipeline).
func (p *Promise[T]) complete(v T) {
	p.mu.Lock()
	p.val = v
	p.filled = true
	if p.done != nil {
		close(p.done)
	}
	cbs := p.cbs
	p.cbs = nil
	p.mu.Unlock()
	for _, cb := range cbs {
		cb(v)
	}
}

// Done reports whether the result is available without blocking.
func (p *Promise[T]) Done() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.filled
}

// Wait returns the operation's result, blocking until it is available.
// If the operation is still sitting in its pipeline's buffer, Wait
// flushes the pipeline first. Calling Wait more than once is allowed
// and returns the same result every time.
func (p *Promise[T]) Wait() T {
	p.mu.Lock()
	if p.filled {
		v := p.val
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	if p.fl != nil {
		p.fl.Flush()
	}
	p.mu.Lock()
	if p.filled {
		v := p.val
		p.mu.Unlock()
		return v
	}
	// Still pending: another goroutine's flush (one that took the buffer
	// between our check and our Flush) holds the op. Block until it
	// completes.
	if p.done == nil {
		p.done = make(chan struct{})
	}
	done := p.done
	p.mu.Unlock()
	<-done
	return p.val // ordered after complete by the channel close
}

// OnComplete registers fn to run with the result when it becomes
// available. If the promise already completed, fn runs immediately on
// the calling goroutine; otherwise it runs on the goroutine executing
// the batch. fn must not call back into the owning pipeline (enqueue,
// Flush, or Wait on an unflushed promise): completion runs outside the
// pipeline lock, but a callback that re-enters a pipeline mid-flush
// would interleave with the very batch completing it.
func (p *Promise[T]) OnComplete(fn func(T)) {
	p.mu.Lock()
	if !p.filled {
		p.cbs = append(p.cbs, fn)
		p.mu.Unlock()
		return
	}
	v := p.val
	p.mu.Unlock()
	fn(v)
}

// PointResult is the result of an asynchronous Insert, Delete, or
// Search: Insert and Delete report the previous value and whether the
// key existed; Search reports the value found and whether the key was
// present.
type PointResult struct {
	Val uint64
	OK  bool
}

// PointPromise is the future of an asynchronous point operation.
type PointPromise = Promise[PointResult]
