package exp

import (
	"context"
	"errors"
	"sync"
)

// Memo is a keyed, panic-safe singleflight memo: the first caller for a
// key (the leader) computes while later callers for that key wait. It is
// the one memo behind the engine's preparation and run caches, the fleet
// pool's client-side result cache and the tier calibrator, and it
// follows one rule:
//
//   - A success is memoized; every later Do for the key returns it.
//   - If the leader panics, or fails with context.Canceled or
//     context.DeadlineExceeded, the entry stays empty and a waiter takes
//     over as the new leader. The panic propagates to the leader's
//     caller only.
//   - Any other error goes to the leader and to the waiters on that
//     flight. It is not memoized: the next caller recomputes.
//   - A waiter whose context ends returns ctx.Err() at once instead of
//     blocking for the leader's whole computation.
//
// The zero value is ready to use. A Memo must not be copied after first
// use.
type Memo[V any] struct {
	mu      sync.Mutex
	entries map[string]*memoEntry[V]
}

type memoEntry[V any] struct {
	done bool
	val  V
	fl   *memoFlight // the current leader's flight; nil when idle
}

// memoFlight is one leader's computation. wake closes when it finishes
// either way; err, set before the close, is a failure its waiters share.
type memoFlight struct {
	wake chan struct{}
	err  error
}

// Do returns the memoized value for key, computing it with f if needed.
// f runs at most once at a time per key.
func (m *Memo[V]) Do(ctx context.Context, key string, f func() (V, error)) (V, error) {
	var zero V
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		if m.entries == nil {
			m.entries = make(map[string]*memoEntry[V])
		}
		e = &memoEntry[V]{}
		m.entries[key] = e
	}
	for !e.done && e.fl != nil {
		fl := e.fl
		m.mu.Unlock()
		select {
		case <-fl.wake:
		case <-ctx.Done():
			return zero, ctx.Err()
		}
		if fl.err != nil {
			return zero, fl.err
		}
		m.mu.Lock()
	}
	if e.done {
		v := e.val
		m.mu.Unlock()
		return v, nil
	}
	fl := &memoFlight{wake: make(chan struct{})}
	e.fl = fl
	m.mu.Unlock()

	var v V
	var err error
	returned := false // false while unwinding a panic out of f
	defer func() {
		m.mu.Lock()
		e.fl = nil
		switch {
		case !returned || isContextErr(err):
			// Leave the entry empty: a waiter takes over.
		case err == nil:
			e.val, e.done = v, true
		default:
			fl.err = err
		}
		m.mu.Unlock()
		close(fl.wake)
	}()
	v, err = f()
	returned = true
	return v, err
}

// isContextErr reports whether err is a cancellation or deadline — a
// failure of the leader's caller, not of the computation.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
