package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"bigfoot/internal/analysis"
	"bigfoot/internal/bfj"
	"bigfoot/internal/detector"
	"bigfoot/internal/interp"
	"bigfoot/internal/proxy"
)

// arraySrc exercises the encoder paths racySrc misses: array accesses,
// range checks (zigzag bounds, position sets), and footprint commits.
const arraySrc = `
class Cell { field v; }
setup { a = newarray 64; c = new Cell; }
thread { acquire c; for (i = 0; i < 64; i = i + 1) { a[i] = 1; } release c; }
thread { acquire c; for (i = 0; i < 64; i = i + 1) { x = a[i]; } release c; }
`

func compileSrc(t *testing.T, src string) (*interp.Compiled, *proxy.Table) {
	t.Helper()
	prog, err := bfj.Parse(src)
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

// recordRun executes src with a trace Writer, a Recorder, and a BF
// detector attached, returning the encoded trace, the live recorder,
// the live detector, and the run's counters.
func recordRun(t *testing.T, src string, seed int64) (*bytes.Buffer, *Recorder, *detector.Detector, interp.Counters) {
	t.Helper()
	c, prox := compileSrc(t, src)
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, Header{Program: "test", Variant: "BF", Seed: seed, ProxyRep: prox.Pairs()})
	if err != nil {
		t.Fatal(err)
	}
	d := detector.New(detector.Config{Footprints: true, Proxies: prox})
	rec := NewRecorder(0)
	d.SetObserver(rec)
	// Writer first (pristine hook order), recorder before detector.
	cnt, err := c.Run(Tee(tw, rec, d), interp.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(cnt, nil); err != nil {
		t.Fatal(err)
	}
	return &buf, rec, d, cnt
}

// TestFormatRoundTrip: replaying a recorded trace through a fresh
// detector+recorder stack reproduces the live run exactly — identical
// event stream (hook and re-derived observer events, positions, targets
// and all), identical detector stats and races, and a footer carrying
// the live counters.
func TestFormatRoundTrip(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"fields", racySrc},
		{"arrays", arraySrc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf, recLive, dLive, cnt := recordRun(t, tc.src, 3)

			rd, err := NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			hdr := rd.Header()
			if hdr.Program != "test" || hdr.Variant != "BF" || hdr.Seed != 3 {
				t.Errorf("header = %+v", hdr)
			}

			// The replay detector is configured purely from the header —
			// including the proxy table, round-tripped through ProxyRep.
			dRep := detector.New(detector.Config{Footprints: true, Proxies: proxy.FromPairs(hdr.ProxyRep)})
			recRep := NewRecorder(0)
			dRep.SetObserver(recRep)
			n, err := rd.Replay(Tee(recRep, dRep))
			if err != nil {
				t.Fatal(err)
			}
			if ftr := rd.Footer(); ftr.Events != n || ftr.Counters != cnt || ftr.Err != "" {
				t.Errorf("footer = %+v, want %d events, counters %+v", ftr, n, cnt)
			}
			if dRep.Stats != dLive.Stats {
				t.Errorf("replayed stats %+v, want %+v", dRep.Stats, dLive.Stats)
			}
			if got, want := dRep.RaceCount(), dLive.RaceCount(); got != want {
				t.Errorf("replayed races = %d, want %d", got, want)
			}
			if !reflect.DeepEqual(recRep.Events(), recLive.Events()) {
				live, rep := recLive.Events(), recRep.Events()
				for i := range live {
					if i >= len(rep) || live[i] != rep[i] {
						t.Fatalf("event %d: live %+v, replayed %+v", i, live[i], at(rep, i))
					}
				}
				t.Fatalf("replayed stream longer than live: %d vs %d", len(rep), len(live))
			}
		})
	}
}

func at(evs []Event, i int) any {
	if i >= len(evs) {
		return "<missing>"
	}
	return evs[i]
}

// TestFormatCompression: the binary format must stay well under the
// naive JSON event dump — the acceptance bar is 4×; typical streams
// compress far further because of interning and thread elision.
func TestFormatCompression(t *testing.T) {
	buf, rec, _, _ := recordRun(t, arraySrc, 0)
	naive, err := json.Marshal(hookOnly(rec.Events()))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(naive)) / float64(buf.Len())
	t.Logf("binary %d bytes, naive JSON %d bytes, ratio %.1fx", buf.Len(), len(naive), ratio)
	if ratio < 4 {
		t.Errorf("compression ratio %.2fx, want >= 4x", ratio)
	}
}

// TestFormatRejectsGarbage: wrong magic, unknown versions, and
// truncated streams fail with errors instead of replaying silently
// short or calling hooks on garbage.
func TestFormatRejectsGarbage(t *testing.T) {
	if _, err := NewReader(strings.NewReader("XXXXjunkjunkjunk")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte{'B', 'F', 'T', 'R', 99, 0})); err == nil {
		t.Error("unknown version accepted")
	}

	buf, _, _, _ := recordRun(t, racySrc, 1)
	whole := buf.Bytes()
	for _, cut := range []int{len(whole) / 2, len(whole) - 1} {
		rd, err := NewReader(bytes.NewReader(whole[:cut]))
		if err != nil {
			continue // truncated inside the header: also an error, fine
		}
		if _, err := rd.Replay(interp.NopHook{}); err == nil {
			t.Errorf("truncation at %d/%d bytes replayed without error", cut, len(whole))
		}
	}

	rd, err := NewReader(bytes.NewReader(whole))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Replay(interp.NopHook{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Replay(interp.NopHook{}); err == nil {
		t.Error("second Replay accepted")
	}
}

// TestReplayBoundsHeap: a trace whose arrays pass interp.MaxHeapWords
// fails to decode instead of allocating them.  No live run can record
// such an array, so the trace is built by hand: a base run with one
// ReadIndex on a new array of length MaxHeapWords, which charges
// MaxHeapWords+1 words.
func TestReplayBoundsHeap(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, Header{Program: "huge", Variant: "base"})
	if err != nil {
		t.Fatal(err)
	}
	tw.head(opReadIndex, 1, false)
	tw.u(1)                   // array id, first occurrence
	tw.u(interp.MaxHeapWords) // its length
	tw.i(0)                   // index
	tw.pos(bfj.Pos{Line: 1, Col: 1})
	tw.end()
	if err := tw.Close(interp.Counters{}, nil); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Replay(interp.NopHook{}); err == nil || !strings.Contains(err.Error(), "MaxHeapWords") {
		t.Fatalf("replaying an array of length %d: err %v, want the MaxHeapWords bound", interp.MaxHeapWords, err)
	}
}

// TestReplayRejectsCheckRangeOutsideArray: a trace whose check range
// does not lie inside its array fails to decode, as no live run can
// record one: the interpreter clamps every checked range into its
// array.
func TestReplayRejectsCheckRangeOutsideArray(t *testing.T) {
	for _, c := range []struct{ lo, hi, step int }{
		{2, 9, 1},       // past the end
		{-1, 3, 1},      // before the start
		{3, 3, 1},       // empty
		{0, 4, 0},       // no stride
		{0, 1 << 40, 1}, // past int32
	} {
		var buf bytes.Buffer
		tw, err := NewWriter(&buf, Header{Program: "bad", Variant: "FT"})
		if err != nil {
			t.Fatal(err)
		}
		tw.CheckRange(1, true, &interp.Array{ID: 1, Elems: make([]interp.Value, 4)}, c.lo, c.hi, c.step, nil)
		if err := tw.Close(interp.Counters{}, nil); err != nil {
			t.Fatal(err)
		}
		rd, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rd.Replay(interp.NopHook{}); err == nil || !strings.Contains(err.Error(), "outside an array of length 4") {
			t.Errorf("replaying check range [%d,%d):%d: err %v, want it rejected", c.lo, c.hi, c.step, err)
		}
	}
}
