package main

import (
	"sync"
	"time"
)

// clock abstracts time for the load generator, so the loop can be tested
// without sleeping.
type clock interface {
	// now returns the time since the loop's epoch.
	now() time.Duration
}

type realClock struct{ epoch time.Time }

func newRealClock() realClock { return realClock{epoch: time.Now()} }

func (c realClock) now() time.Duration { return time.Since(c.epoch) }

// opTiming is when one operation was sent and answered.
type opTiming struct {
	sent, done time.Duration
}

func (t opTiming) latency() time.Duration { return t.done - t.sent }

// closedLoop runs clients goroutines until d has passed, or until each
// has run ops operations when ops > 0; each sends its next operation only
// after the previous one was answered. do(c, i) runs client c's i-th
// operation. It returns each client's timings.
//
// Every workload is a closed loop. An open loop at a fixed rate was tried
// for serve-skewed: on a two-vCPU virtual machine its p99 spread 40%
// between interleaved runs, against 7% for this loop, because a host
// stall backs requests up behind it and idle gaps between requests let
// the host deschedule the vCPU.
func closedLoop(clients int, d time.Duration, ops int, clk clock, do func(c, i int)) [][]opTiming {
	out := make([][]opTiming, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; (ops <= 0 || i < ops) && clk.now() < d; i++ {
				sent := clk.now()
				do(c, i)
				out[c] = append(out[c], opTiming{sent: sent, done: clk.now()})
			}
		}(c)
	}
	wg.Wait()
	return out
}
