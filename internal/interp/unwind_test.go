package interp

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"bigfoot/internal/bfj"
)

// spinners is three worker threads of field writes, long enough that
// any early end finds the others suspended mid-slice.
const spinners = `
class C {
  field v;
  method spin(n) { for (i = 0; i < n; i = i + 1) { this.v = i; } }
}
setup { c = new C; }
thread { c.spin(1000); }
thread { c.spin(1000); }
thread { c.spin(1000); }
`

// eventHook counts events per thread and calls at on the nth event.
type eventHook struct {
	NopHook
	n, events int
	byThread  map[int]int
	at        func()
}

func (h *eventHook) event(t int) {
	h.events++
	h.byThread[t]++
	if h.events == h.n && h.at != nil {
		h.at()
	}
}

func (h *eventHook) WriteField(t int, o *Object, f string, pos bfj.Pos) { h.event(t) }

type hookPanic struct{}

// TestRunUnwinds: every early end of a run reaches Run's caller, as an
// error or as the hook's own panic, and unwinds every thread coroutine,
// so no goroutine outlives Run.
func TestRunUnwinds(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		steps   uint64                          // Options.MaxSteps
		nth     int                             // hook event that triggers at
		at      func(cancel context.CancelFunc) // nil: the hook only counts
		wantErr func(error) bool
		check   func(t *testing.T, h *eventHook)
	}{
		{
			name:    "step limit",
			src:     spinners,
			steps:   2000,
			wantErr: func(err error) bool { return errors.Is(err, ErrStepLimit) },
		},
		{
			name: "deadlock",
			src: `
class L { method take(l) { acquire l; } }
setup { l = new L; acquire l; h = fork l.take(l); join h; }
`,
			wantErr: func(err error) bool { return err != nil && strings.Contains(err.Error(), "deadlock") },
		},
		{
			name: "runtime error while others are parked",
			src: spinners + `
thread { for (i = 0; i < 200; i = i + 1) { x = i; } assert 1 == 2; }
`,
			wantErr: func(err error) bool { return err != nil && strings.Contains(err.Error(), "assertion failed") },
			check: func(t *testing.T, h *eventHook) {
				if h.events == 0 || h.events >= 3000 {
					t.Errorf("spinners wrote %d times before the failure, want some but not all", h.events)
				}
			},
		},
		{
			name:    "ctx cancelled mid-run",
			src:     spinners,
			nth:     500,
			at:      func(cancel context.CancelFunc) { cancel() },
			wantErr: func(err error) bool { return errors.Is(err, context.Canceled) },
		},
		{
			name: "forked thread never ran",
			src: `
class O { field v; method m() { this.v = 1; } }
setup { o = new O; h = fork o.m(); assert 1 == 2; }
`,
			wantErr: func(err error) bool { return err != nil && strings.Contains(err.Error(), "thread 0: assertion failed") },
			check: func(t *testing.T, h *eventHook) {
				if h.byThread[1] != 0 {
					t.Errorf("the forked thread ran: %d events", h.byThread[1])
				}
			},
		},
		{
			name: "hook panics",
			src:  spinners,
			nth:  500,
			at:   func(context.CancelFunc) { panic(hookPanic{}) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := MustCompile(bfj.MustParse(tc.src))
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			h := &eventHook{n: tc.nth, byThread: map[int]int{}}
			if tc.at != nil {
				h.at = func() { tc.at(cancel) }
			}
			var err error
			panicked := func() (r any) {
				defer func() { r = recover() }()
				_, err = c.RunContext(ctx, h, Options{Seed: 1, MaxSteps: tc.steps})
				return nil
			}()
			if tc.wantErr == nil {
				if _, ok := panicked.(hookPanic); !ok {
					t.Errorf("Run returned (err %v, panic %v), want the hook's panic", err, panicked)
				}
			} else {
				if panicked != nil {
					t.Fatalf("Run panicked: %v", panicked)
				}
				if !tc.wantErr(err) {
					t.Errorf("Run returned %v", err)
				}
			}
			if tc.check != nil {
				tc.check(t, h)
			}
			if n := goroutinesBackTo(before); n > before {
				t.Errorf("%d goroutines after Run, %d before: thread coroutines leaked", n, before)
			}
		})
	}
}

// goroutinesBackTo waits up to a second for the goroutine count to
// fall back to want and returns the last count.  It may fall below
// want, when a goroutine an earlier test started exits meanwhile.
func goroutinesBackTo(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
