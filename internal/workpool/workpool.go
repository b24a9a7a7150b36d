// Package workpool holds the process-wide harness worker-token pool.
//
// Every concurrent harness in the repo — the experiment runner in
// internal/report and the chaos soak in internal/chaos — draws from
// this single pool, so total concurrency never exceeds the configured
// -j no matter which level the parallelism comes from. Callers gather
// results by index, which keeps output deterministic at any pool size.
package workpool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
)

var (
	poolMu sync.Mutex
	par    = 1           // guarded by poolMu
	tokens chan struct{} // guarded by poolMu
)

func init() { SetParallelism(runtime.GOMAXPROCS(0)) }

// SetParallelism sizes the worker pool. j < 1 is treated as 1. It must
// not be called while work is running.
func SetParallelism(j int) {
	if j < 1 {
		j = 1
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	par = j
	tokens = make(chan struct{}, j)
	for i := 0; i < j; i++ {
		tokens <- struct{}{}
	}
}

// Parallelism returns the configured worker count.
func Parallelism() int {
	poolMu.Lock()
	defer poolMu.Unlock()
	return par
}

func pool() chan struct{} {
	poolMu.Lock()
	defer poolMu.Unlock()
	return tokens
}

// Acquire blocks for one worker token and returns the function that
// releases it. The release always returns the token to the channel it
// was taken from, so a concurrent SetParallelism cannot leak or
// duplicate tokens.
func Acquire() (release func()) {
	t := pool()
	<-t
	return func() { t <- struct{}{} }
}

// canceledPhrase is the fixed prefix of Canceled.Error. Callers that
// receive a row panic re-raised as a formatted string (the RowSet
// re-raise path) classify it by matching this phrase, so it must not
// change.
const canceledPhrase = "workpool: run canceled"

// Canceled is the panic value RowSet raises when its context is done
// before every row has started: the row set is incomplete, so the
// harness unit cannot render a result and must degrade to a structured
// failure. Rows already running are not interrupted — cancellation is
// cooperative at row granularity.
type Canceled struct {
	// Cause is the context's cause (context.Canceled or
	// context.DeadlineExceeded, or a custom cancel cause).
	Cause error
}

func (c *Canceled) Error() string {
	return fmt.Sprintf("%s: %v", canceledPhrase, c.Cause)
}

// IsCanceled reports whether a contained panic value is a RowSet
// cancellation — either the *Canceled value itself or its fixed
// phrase inside a re-raised row-panic string. timeout reports whether
// the cause was a deadline rather than an explicit cancel.
func IsCanceled(p any) (canceled, timeout bool) {
	if c, ok := p.(*Canceled); ok {
		return true, errors.Is(c.Cause, context.DeadlineExceeded)
	}
	s := fmt.Sprint(p)
	if !strings.Contains(s, canceledPhrase) {
		return false, false
	}
	return true, strings.Contains(s, context.DeadlineExceeded.Error())
}

// RowSet runs fn(0..n-1) — independent rows of one harness unit —
// concurrently on whatever tokens are idle, running the remainder
// inline on the calling goroutine. A panic in any row is re-raised on
// the calling goroutine (annotated with the row's stack), so the
// caller's own panic containment still works.
//
// Cancellation is cooperative at row granularity: before each row is
// started (dispatched or inline) the context is checked, and once it
// is done no further rows start. Rows already running finish normally
// (their cycle-budget watchdog bounds them). If any row was skipped,
// RowSet panics with *Canceled after the running rows complete, so an
// incomplete row set can never be mistaken for a finished one. A nil
// context means Background, and an uncancelled run is byte-identical
// to the pre-context behavior at any pool size.
func RowSet(ctx context.Context, n int, fn func(i int)) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				panic(&Canceled{Cause: context.Cause(ctx)})
			}
			fn(i)
		}
		return
	}
	t := pool()
	done := ctx.Done()
	var wg sync.WaitGroup
	var panicked atomic.Pointer[rowPanic]
	skipped := false
	for i := 0; i < n; i++ {
		if skipped {
			break
		}
		select {
		case <-done:
			skipped = true
			continue
		default:
		}
		select {
		case <-t:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { t <- struct{}{} }()
				defer func() {
					if p := recover(); p != nil {
						panicked.CompareAndSwap(nil, &rowPanic{val: p, stack: debug.Stack()})
					}
				}()
				fn(i)
			}(i)
		default:
			fn(i)
		}
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(fmt.Sprintf("%v\nrow goroutine stack:\n%s", p.val, p.stack))
	}
	if skipped {
		panic(&Canceled{Cause: context.Cause(ctx)})
	}
}

type rowPanic struct {
	val   any
	stack []byte
}
