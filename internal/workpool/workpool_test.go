package workpool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func resetPool(t *testing.T) {
	t.Cleanup(func() { SetParallelism(runtime.GOMAXPROCS(0)) })
}

// TestRowSetCompletesUncancelled pins the baseline: with a live
// context every index runs exactly once, at any pool size.
func TestRowSetCompletesUncancelled(t *testing.T) {
	resetPool(t)
	for _, j := range []int{1, 2, 8} {
		SetParallelism(j)
		ran := make([]int, 64)
		RowSet(context.Background(), len(ran), func(i int) { ran[i]++ })
		for i, n := range ran {
			if n != 1 {
				t.Fatalf("j=%d: row %d ran %d times", j, i, n)
			}
		}
	}
}

// TestRowSetNilContext treats nil as Background.
func TestRowSetNilContext(t *testing.T) {
	resetPool(t)
	ran := make([]bool, 4)
	RowSet(nil, len(ran), func(i int) { ran[i] = true })
	for i, ok := range ran {
		if !ok {
			t.Fatalf("row %d skipped under nil context", i)
		}
	}
}

// TestRowSetCancelSkipsRemainingRows is the cooperative-cancellation
// contract: once the context is cancelled no further rows start, rows
// already dispatched finish, and RowSet panics *Canceled so the caller
// cannot mistake the incomplete row set for a finished one.
func TestRowSetCancelSkipsRemainingRows(t *testing.T) {
	resetPool(t)
	SetParallelism(1)
	ctx, cancel := context.WithCancel(context.Background())
	ran := make([]bool, 16)
	var p any
	func() {
		defer func() { p = recover() }()
		RowSet(ctx, len(ran), func(i int) {
			ran[i] = true
			if i == 3 {
				cancel()
			}
		})
	}()
	if p == nil {
		t.Fatal("cancelled RowSet did not panic")
	}
	c, ok := p.(*Canceled)
	if !ok {
		t.Fatalf("panic value %T, want *Canceled", p)
	}
	if !errors.Is(c.Cause, context.Canceled) {
		t.Errorf("cause = %v, want context.Canceled", c.Cause)
	}
	for i := 0; i <= 3; i++ {
		if !ran[i] {
			t.Errorf("row %d should have run before the cancel", i)
		}
	}
	for i := 5; i < len(ran); i++ {
		if ran[i] {
			t.Errorf("row %d ran after the cancel", i)
		}
	}
}

// TestRowSetCancelAfterLastRowIsComplete: a context cancelled only
// after every row has started must not fail the run — the row set is
// complete.
func TestRowSetCancelAfterLastRowIsComplete(t *testing.T) {
	resetPool(t)
	SetParallelism(1)
	ctx, cancel := context.WithCancel(context.Background())
	ran := make([]bool, 8)
	RowSet(ctx, len(ran), func(i int) {
		ran[i] = true
		if i == 7 {
			// Row 7 is dispatched last, so every row has started by now;
			// the cancel must not fail the (complete) row set.
			cancel()
		}
	})
	for i, ok := range ran {
		if !ok {
			t.Fatalf("row %d never ran", i)
		}
	}
}

// TestIsCanceled covers both arrival shapes: the sentinel itself and
// the re-raised row-goroutine string, with and without a deadline.
func TestIsCanceled(t *testing.T) {
	deadline := &Canceled{Cause: context.DeadlineExceeded}
	plain := &Canceled{Cause: context.Canceled}
	cases := []struct {
		name     string
		p        any
		canceled bool
		timeout  bool
	}{
		{"sentinel-canceled", plain, true, false},
		{"sentinel-deadline", deadline, true, true},
		{"string-canceled", fmt.Sprintf("%v\nrow goroutine stack:\n...", plain.Error()), true, false},
		{"string-deadline", fmt.Sprintf("%v\nrow goroutine stack:\n...", deadline.Error()), true, true},
		{"unrelated-panic", "kaboom", false, false},
		{"budget-panic", "clock: cycle budget exceeded: spent 2 of 1 simulated cycles", false, false},
	}
	for _, tc := range cases {
		canceled, timeout := IsCanceled(tc.p)
		if canceled != tc.canceled || timeout != tc.timeout {
			t.Errorf("%s: IsCanceled = (%v, %v), want (%v, %v)", tc.name, canceled, timeout, tc.canceled, tc.timeout)
		}
	}
}

// TestRowSetDeadline drives the timeout path end to end: an expired
// deadline surfaces as *Canceled with a DeadlineExceeded cause and no
// row ever starts.
func TestRowSetDeadline(t *testing.T) {
	resetPool(t)
	SetParallelism(1)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	var p any
	func() {
		defer func() { p = recover() }()
		RowSet(ctx, 1000, func(i int) {
			t.Errorf("row %d ran under an expired deadline", i)
		})
	}()
	c, ok := p.(*Canceled)
	if !ok {
		t.Fatalf("panic value %T (%v), want *Canceled", p, p)
	}
	if !errors.Is(c.Cause, context.DeadlineExceeded) {
		t.Errorf("cause = %v, want DeadlineExceeded", c.Cause)
	}
	if !strings.Contains(c.Error(), "workpool: run canceled") {
		t.Errorf("error %q missing the fixed phrase", c.Error())
	}
}

// TestSetParallelismConcurrentAcquire resizes the pool while workers
// read Parallelism and hold and return tokens through Acquire and
// RowSet. Each release goes back to the channel its token came from,
// so once the pool is quiet the current channel holds exactly
// Parallelism tokens: none leaked, none doubled. Under -race this is
// also the check that par and tokens are only touched under poolMu.
func TestSetParallelismConcurrentAcquire(t *testing.T) {
	resetPool(t)
	SetParallelism(2)
	stop := make(chan struct{})
	var resizer sync.WaitGroup
	resizer.Add(1)
	go func() {
		defer resizer.Done()
		for j := 1; ; j = j%4 + 1 {
			select {
			case <-stop:
				return
			default:
			}
			SetParallelism(j)
			runtime.Gosched()
		}
	}()

	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for iter := 0; iter < 200; iter++ {
				if p := Parallelism(); p < 1 || p > 4 {
					t.Errorf("Parallelism() = %d, want 1..4", p)
				}
				if w%2 == 0 {
					release := Acquire()
					runtime.Gosched()
					release()
					continue
				}
				ran := make([]int, 8)
				RowSet(context.Background(), len(ran), func(i int) { ran[i]++ })
				for i, n := range ran {
					if n != 1 {
						t.Errorf("worker %d: row %d ran %d times", w, i, n)
					}
				}
			}
		}(w)
	}
	quiet := make(chan struct{})
	go func() { workers.Wait(); close(quiet) }()
	select {
	case <-quiet:
	case <-time.After(time.Minute):
		t.Fatal("workers still blocked after a minute: a token leaked")
	}
	close(stop)
	resizer.Wait()

	par, tok := Parallelism(), pool()
	if len(tok) != par || cap(tok) != par {
		t.Fatalf("quiet pool holds %d tokens (cap %d), want %d", len(tok), cap(tok), par)
	}
}
