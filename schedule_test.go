package bigfoot_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"bigfoot/internal/bfj"
	"bigfoot/internal/engine"
	"bigfoot/internal/interp"
	"bigfoot/internal/workloads"
)

// scheduleHook folds every hook event of a run, in order, into an
// FNV-64a hash: the event's kind, thread, object or array id, field
// name or index, and check range.  Two runs with equal hashes
// interleaved their threads identically.
type scheduleHook struct {
	h      uint64
	events uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func (s *scheduleHook) byte(b byte) {
	s.h ^= uint64(b)
	s.h *= fnvPrime64
}

func (s *scheduleHook) int(x int) {
	for v, i := uint64(x), 0; i < 8; v, i = v>>8, i+1 {
		s.byte(byte(v))
	}
}

func (s *scheduleHook) str(x string) {
	s.int(len(x))
	for i := 0; i < len(x); i++ {
		s.byte(x[i])
	}
}

func (s *scheduleHook) event(kind byte, t int) {
	s.events++
	s.byte(kind)
	s.int(t)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (s *scheduleHook) Fork(parent, child int) { s.event('F', parent); s.int(child) }
func (s *scheduleHook) ThreadEnd(t int)        { s.event('E', t) }
func (s *scheduleHook) Join(parent, child int) { s.event('J', parent); s.int(child) }
func (s *scheduleHook) Acquire(t int, l *interp.Object) {
	s.event('A', t)
	s.int(l.ID)
}
func (s *scheduleHook) Release(t int, l *interp.Object) {
	s.event('R', t)
	s.int(l.ID)
}
func (s *scheduleHook) VolRead(t int, o *interp.Object, f string) {
	s.event('v', t)
	s.int(o.ID)
	s.str(f)
}
func (s *scheduleHook) VolWrite(t int, o *interp.Object, f string) {
	s.event('V', t)
	s.int(o.ID)
	s.str(f)
}
func (s *scheduleHook) ReadField(t int, o *interp.Object, f string, _ bfj.Pos) {
	s.event('f', t)
	s.int(o.ID)
	s.str(f)
}
func (s *scheduleHook) WriteField(t int, o *interp.Object, f string, _ bfj.Pos) {
	s.event('W', t)
	s.int(o.ID)
	s.str(f)
}
func (s *scheduleHook) ReadIndex(t int, a *interp.Array, i int, _ bfj.Pos) {
	s.event('i', t)
	s.int(a.ID)
	s.int(i)
}
func (s *scheduleHook) WriteIndex(t int, a *interp.Array, i int, _ bfj.Pos) {
	s.event('I', t)
	s.int(a.ID)
	s.int(i)
}
func (s *scheduleHook) CheckField(t int, write bool, o *interp.Object, fc *interp.FieldCheck) {
	s.event('c', t)
	s.int(b2i(write))
	s.int(o.ID)
	for _, f := range fc.Fields {
		s.str(f)
	}
}
func (s *scheduleHook) CheckRange(t int, write bool, a *interp.Array, lo, hi, step int, _ []bfj.Pos) {
	s.event('C', t)
	s.int(b2i(write))
	s.int(a.ID)
	s.int(lo)
	s.int(hi)
	s.int(step)
}
func (s *scheduleHook) Finish() { s.event('X', 0) }

// scheduleLine runs one compiled program under the hashing hook and
// renders the result.
func scheduleLine(t *testing.T, name, variant string, c *interp.Compiled, seed int64) string {
	h := &scheduleHook{h: fnvOffset64}
	cnt, err := c.Run(h, interp.Options{Seed: seed})
	if err != nil {
		t.Fatalf("%s %s seed %d: %v", name, variant, seed, err)
	}
	return fmt.Sprintf("%s %s seed=%d steps=%d events=%d hash=%016x", name, variant, seed, cnt.Steps, h.events, h.h)
}

// TestScheduleGolden pins the interleaving itself across commits, where
// the report signature pins only counters: every hook event, in order,
// of the base and BF-instrumented programs of the 19 workloads at
// DefaultScale and of quickstart, at seeds 1 and 42.  A change to the
// scheduler or to event order fails here.  On a mismatch the test
// writes the lines it computed to a temporary file and names it.
func TestScheduleGolden(t *testing.T) {
	ws := append(workloads.All(workloads.DefaultScale()), workloads.Quickstart())
	var lines []string
	for _, w := range ws {
		base := bfj.MustParse(w.Source)
		variants := []struct {
			name string
			prog *bfj.Program
		}{{"base", base}, {"BF", engine.InstrumentFor(base, "BF").Prog}}
		for _, v := range variants {
			c := interp.MustCompile(v.prog)
			for _, seed := range []int64{1, 42} {
				lines = append(lines, scheduleLine(t, w.Name, v.name, c, seed))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	want, err := os.ReadFile("testdata/schedule.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Errorf("golden has %d lines, computed %d", len(wantLines), len(lines))
	}
	bad := 0
	for i := 0; i < len(lines) && i < len(wantLines); i++ {
		if lines[i] != wantLines[i] {
			if bad++; bad <= 10 {
				t.Errorf("schedule differs:\n got %s\nwant %s", lines[i], wantLines[i])
			}
		}
	}
	if f, err := os.CreateTemp("", "schedule-*.golden"); err == nil {
		f.WriteString(got)
		f.Close()
		t.Errorf("%d lines differ; computed schedules written to %s", bad, f.Name())
	}
}
