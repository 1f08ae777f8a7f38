package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"bigfoot/internal/analysis"
	"bigfoot/internal/bfj"
	"bigfoot/internal/detector"
	"bigfoot/internal/interp"
	"bigfoot/internal/proxy"
)

const racySrc = `
class Cell { field v; }
setup { c = new Cell; }
thread { x = c.v; c.v = x + 1; }
thread { x = c.v; c.v = x + 2; }
`

// compileBF compiles racySrc under BigFoot placement.
func compileBF(t *testing.T) (*interp.Compiled, *proxy.Table) {
	t.Helper()
	prog, err := bfj.Parse(racySrc)
	if err != nil {
		t.Fatal(err)
	}
	inst := analysis.New(prog, analysis.Options{}).Instrument()
	c, err := interp.Compile(inst)
	if err != nil {
		t.Fatal(err)
	}
	return c, proxy.Analyze(inst)
}

// runOnce executes the compiled program with a fresh detector and n
// attached recorders, returning the recorders and the detector.
func runOnce(t *testing.T, c *interp.Compiled, prox *proxy.Table, n int) ([]*Recorder, *detector.Detector) {
	t.Helper()
	d := detector.New(detector.Config{Footprints: true, Proxies: prox})
	recs := make([]*Recorder, n)
	hooks := []interp.Hook{d}
	for i := range recs {
		recs[i] = NewRecorder(0)
		hooks = append(hooks, recs[i])
	}
	if n > 0 {
		d.SetObserver(recs[0])
	}
	if _, err := c.Run(Tee(hooks...), interp.Options{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	return recs, d
}

// TestTeeTransparent: attaching 0, 1, or 2 recorders leaves the
// detector's observations untouched, and every attached recorder sees
// the identical event sequence.
func TestTeeTransparent(t *testing.T) {
	c, prox := compileBF(t)
	_, base := runOnce(t, c, prox, 0)

	var first []Event
	for _, n := range []int{1, 2} {
		recs, d := runOnce(t, c, prox, n)
		if got, want := d.RaceCount(), base.RaceCount(); got != want {
			t.Errorf("%d recorders: races = %d, want %d", n, got, want)
		}
		if d.Stats != base.Stats {
			t.Errorf("%d recorders: detector stats diverged: %+v vs %+v", n, d.Stats, base.Stats)
		}
		// Recorder 0 additionally receives Observer events; recorders
		// beyond it see the pure hook stream, identical to each other.
		if first == nil {
			first = hookOnly(recs[0].Events())
		}
		for i, rec := range recs {
			evs := rec.Events()
			if i > 0 && !reflect.DeepEqual(evs, recs[1].Events()) {
				t.Errorf("recorder %d stream differs from recorder 1", i)
			}
			if got := hookOnly(evs); !sameOps(got, first) {
				t.Errorf("%d recorders: recorder %d hook stream differs from 1-recorder run", n, i)
			}
		}
	}
}

// hookOnly filters out the detector-Observer events, keeping the
// interp.Hook stream.
func hookOnly(evs []Event) []Event {
	var out []Event
	for _, e := range evs {
		switch e.Op {
		case "fp-commit", "refine", "read-shared":
		default:
			out = append(out, e)
		}
	}
	return out
}

// sameOps compares two event sequences ignoring Seq (interleaved
// Observer events shift sequence numbers but not the hook stream).
func sameOps(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		x.Seq, y.Seq = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// TestRecorderDeterministic: concurrent executions of one compiled
// artifact produce byte-identical event streams (the -parallel
// invariant: tracing changes nothing about scheduling, and recorders
// are per-run).
func TestRecorderDeterministic(t *testing.T) {
	c, prox := compileBF(t)
	const workers = 4
	streams := make([][]Event, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := detector.New(detector.Config{Footprints: true, Proxies: prox})
			rec := NewRecorder(0)
			d.SetObserver(rec)
			if _, err := c.Run(Tee(d, rec), interp.Options{Seed: 3}); err != nil {
				t.Error(err)
				return
			}
			streams[w] = rec.Events()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(streams[w], streams[0]) {
			t.Errorf("worker %d produced a different event stream", w)
		}
	}
	b0, _ := json.Marshal(streams[0])
	b1, _ := json.Marshal(streams[1])
	if !bytes.Equal(b0, b1) {
		t.Error("serialized streams not byte-identical")
	}
}

// TestTeeDegenerateForms: no hooks is a nop hook, one hook is returned
// unwrapped, nils are skipped.
func TestTeeDegenerateForms(t *testing.T) {
	if _, ok := Tee().(interp.NopHook); !ok {
		t.Errorf("Tee() = %T, want NopHook", Tee())
	}
	r := NewRecorder(4)
	if got := Tee(nil, r, nil); got != interp.Hook(r) {
		t.Errorf("Tee(nil, r, nil) = %T, want the recorder itself", got)
	}
}

// TestRingOverflow: the ring keeps the newest events, reports drops,
// and Events returns them oldest-first with contiguous sequence
// numbers.
func TestRingOverflow(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.ThreadEnd(i)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	for i, e := range evs {
		if want := uint64(6 + i); e.Seq != want {
			t.Errorf("event %d: seq = %d, want %d", i, e.Seq, want)
		}
		if e.Thread != 6+i {
			t.Errorf("event %d: thread = %d, want %d", i, e.Thread, 6+i)
		}
	}
}

// TestWriteChromeShape: the export is valid JSON with one thread_name
// metadata lane per recorded thread and one instant event per recorded
// event.
func TestWriteChromeShape(t *testing.T) {
	c, prox := compileBF(t)
	recs, _ := runOnce(t, c, prox, 1)
	rec := recs[0]

	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("emitted invalid JSON")
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	lanes := map[int]bool{}
	instants := 0
	for _, e := range doc.TraceEvents {
		if e.PID != 1 {
			t.Errorf("event %q: pid = %d, want 1", e.Name, e.PID)
		}
		switch e.Phase {
		case "M":
			if e.Name != "thread_name" {
				t.Errorf("metadata event %q", e.Name)
			}
			if want := fmt.Sprintf("T%d", e.TID); e.Args["name"] != want {
				t.Errorf("lane %d named %v, want %s", e.TID, e.Args["name"], want)
			}
			lanes[e.TID] = true
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %q", e.Phase)
		}
	}
	threads := rec.Threads()
	if len(lanes) != len(threads) {
		t.Errorf("lanes = %d, want one per thread (%d)", len(lanes), len(threads))
	}
	for _, th := range threads {
		if !lanes[th] {
			t.Errorf("thread %d has no lane", th)
		}
	}
	if instants != rec.Len() {
		t.Errorf("instant events = %d, want %d", instants, rec.Len())
	}
}

// TestRecorderObserverEvents: detector-side dynamics surface in the
// stream — BigFoot on an array workload commits footprints.
func TestRecorderObserverEvents(t *testing.T) {
	src := `
setup { a = newarray 64; }
thread { for (i = 0; i < 64; i = i + 1) { a[i] = 1; } }
thread { for (i = 0; i < 64; i = i + 1) { x = a[i]; } }
`
	prog, err := bfj.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	inst := analysis.New(prog, analysis.Options{}).Instrument()
	c, err := interp.Compile(inst)
	if err != nil {
		t.Fatal(err)
	}
	d := detector.New(detector.Config{Footprints: true, Proxies: proxy.Analyze(inst)})
	rec := NewRecorder(0)
	d.SetObserver(rec)
	if _, err := c.Run(Tee(d, rec), interp.Options{Seed: 0}); err != nil {
		t.Fatal(err)
	}
	ops := map[string]int{}
	for _, e := range rec.Events() {
		ops[e.Op]++
	}
	if ops["fp-commit"] == 0 {
		t.Errorf("no fp-commit events; ops = %v", ops)
	}
	if ops["check-range"] == 0 {
		t.Errorf("no check-range events; ops = %v", ops)
	}
}
