package exp

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// waitingCtx closes entered the first time a Memo waiter selects on
// Done, the point from which the waiter is committed to the current
// flight, so the table can release the leader only after its waiter is
// really waiting.
type waitingCtx struct {
	context.Context
	once    sync.Once
	entered chan struct{}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.entered) })
	return c.Context.Done()
}

// TestMemo pins the Memo rule in one table. In every row a leader
// computes key "k" and blocks until one waiter has joined its flight;
// then the leader finishes as the row says, and a final caller shows
// what the entry kept.
func TestMemo(t *testing.T) {
	errBoom := errors.New("boom")
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name         string
		leader       func() (int, error) // runs after the waiter joined
		waiterCtx    context.Context
		waiterLeads  bool  // the waiter takes over and computes 7
		waiterErr    error // what the waiter gets when it does not lead
		wantNext     int
		nextComputes bool // the final caller recomputes (nothing memoized)
	}{
		{
			name:      "canceled waiter returns at once",
			leader:    func() (int, error) { return 42, nil },
			waiterCtx: canceledCtx,
			waiterErr: context.Canceled,
			wantNext:  42,
		},
		{
			name:        "panicking leader hands over to a waiter",
			leader:      func() (int, error) { panic(canceled{nil}) },
			waiterCtx:   context.Background(),
			waiterLeads: true,
			wantNext:    7,
		},
		{
			name:        "canceled leader hands over to a waiter",
			leader:      func() (int, error) { return 0, context.Canceled },
			waiterCtx:   context.Background(),
			waiterLeads: true,
			wantNext:    7,
		},
		{
			name:         "error reaches waiters and is not memoized",
			leader:       func() (int, error) { return 0, errBoom },
			waiterCtx:    context.Background(),
			waiterErr:    errBoom,
			wantNext:     9,
			nextComputes: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m Memo[int]
			release := make(chan struct{})
			started := make(chan struct{})
			leaderDone := make(chan struct{})
			go func() {
				defer close(leaderDone)
				defer func() { recover() }()
				m.Do(context.Background(), "k", func() (int, error) {
					close(started)
					<-release
					return tc.leader()
				})
			}()
			<-started

			type result struct {
				v   int
				err error
			}
			wctx := &waitingCtx{Context: tc.waiterCtx, entered: make(chan struct{})}
			waiterDone := make(chan result, 1)
			waiterLed := false
			go func() {
				v, err := m.Do(wctx, "k", func() (int, error) { waiterLed = true; return 7, nil })
				waiterDone <- result{v, err}
			}()
			<-wctx.entered

			var got result
			if tc.waiterCtx.Err() != nil {
				// The leader is still blocked: the waiter must not be.
				select {
				case got = <-waiterDone:
				case <-time.After(5 * time.Second):
					t.Fatal("canceled waiter stayed blocked behind the leader")
				}
				close(release)
			} else {
				close(release)
				got = <-waiterDone
			}
			<-leaderDone

			if waiterLed != tc.waiterLeads {
				t.Fatalf("waiter led = %v, want %v", waiterLed, tc.waiterLeads)
			}
			if tc.waiterLeads {
				if got.v != 7 || got.err != nil {
					t.Fatalf("waiter-turned-leader got (%d, %v), want (7, nil)", got.v, got.err)
				}
			} else if !errors.Is(got.err, tc.waiterErr) {
				t.Fatalf("waiter got (%d, %v), want error %v", got.v, got.err, tc.waiterErr)
			}

			nextRan := false
			v, err := m.Do(context.Background(), "k", func() (int, error) { nextRan = true; return 9, nil })
			if err != nil || v != tc.wantNext {
				t.Fatalf("next caller got (%d, %v), want (%d, nil)", v, err, tc.wantNext)
			}
			if nextRan != tc.nextComputes {
				t.Fatalf("next caller recomputed = %v, want %v", nextRan, tc.nextComputes)
			}
		})
	}
}
