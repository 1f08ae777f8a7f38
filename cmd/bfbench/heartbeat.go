package main

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// evalHeartbeatEvery is the heartbeat cadence.  A long evaluation (a
// -scale sweep where one workload runs for minutes) can otherwise go
// silent long enough that an operator cannot tell a live run from a
// hung one.
const evalHeartbeatEvery = 15 * time.Second

// startHeartbeat periodically writes status() to stderr until the
// returned stop function is called.  stop waits for the reporter
// goroutine to exit, so no heartbeat line can interleave with final
// output printed after stopping.  Callers skip the whole mechanism
// under -q.
func startHeartbeat(every time.Duration, status func() string) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintln(os.Stderr, status())
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
