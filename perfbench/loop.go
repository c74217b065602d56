package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// timing is one measured op's clock readings. In an open loop due is
// when the schedule said to send the op; in a closed loop it equals
// sent, since the next op is due as soon as the previous one returns.
type timing struct {
	due, sent, end time.Time
	// late is how far past due the generator woke for an op it had to
	// wait for; 0 when a worker picked the op up already overdue.
	late time.Duration
}

// latency is measured from the due time, so a stall also counts
// against every op that was due while it lasted.
func (t timing) latency() time.Duration { return t.end.Sub(t.due) }

// connWait is the time an op waited for a free connection.
func (t timing) connWait() time.Duration { return t.sent.Sub(t.due) }

// openLoop issues n ops at rate per second from workers goroutines: op
// i is due at start + i/rate whether or not earlier ops have returned.
// Each worker takes the next op in due order, sleeps until it is due
// when it is early, and runs do(worker, i), which returns when the op's
// answer arrived (before the benchmark checks it). openLoop returns once
// every op has returned.
func openLoop(n int, rate float64, workers int, do func(worker, i int) time.Time) []timing {
	out := make([]timing, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t := &out[i]
				t.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(t.due); d > 0 {
					time.Sleep(d)
					t.late = time.Since(t.due)
				}
				t.sent = time.Now()
				t.end = do(w, i)
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs do(worker, i, sent) back to back on workers
// goroutines until the deadline; i counts each worker's ops from 0, and
// sent is when the op went out, which in a closed loop is also when it
// was due. do records the op's outcome itself.
func closedLoop(deadline time.Time, workers int, do func(worker, i int, sent time.Time)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				sent := time.Now()
				if !sent.Before(deadline) {
					return
				}
				do(w, i, sent)
			}
		}()
	}
	wg.Wait()
}
