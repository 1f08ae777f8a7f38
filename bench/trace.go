package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the bench's own
// code around the public function it calls.
type span struct {
	ID     int    // 1-based; 0 means "no span"
	Parent int    // enclosing span, 0 for a root
	Name   string // layer call, e.g. "analysis.bf" or "engine.run.BF"
	Op     string // shared op id: program×round, build index, request
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the whole run; nothing is written
// until the run ends.  A nil *tracer records nothing, so untraced runs
// call the same code.  Every workload has one caller, so it takes no
// lock.  Spans are stamped with the process's CPU clock (cpuTime), the
// clock every end-to-end timing uses.
type tracer struct {
	t0    time.Duration
	spans []span
}

func newTracer() *tracer { return &tracer{t0: cpuTime()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (tr *tracer) begin(name, op string, parent int) int {
	if tr == nil {
		return 0
	}
	tr.spans = append(tr.spans, span{
		ID: len(tr.spans) + 1, Parent: parent, Name: name, Op: op,
		Start: cpuTime() - tr.t0,
	})
	return len(tr.spans)
}

// end closes span id.
func (tr *tracer) end(id int) {
	if tr == nil || id == 0 {
		return
	}
	tr.spans[id-1].End = cpuTime() - tr.t0
}

// stage is one part of a call that the callee timed itself.
type stage struct {
	name string
	d    time.Duration
}

// stages records stages as consecutive child spans of span parent,
// starting at the parent's start: the callee ran them in this order.
func (tr *tracer) stages(parent int, op string, stages ...stage) {
	if tr == nil || parent == 0 {
		return
	}
	at := tr.spans[parent-1].Start
	for _, st := range stages {
		tr.spans = append(tr.spans, span{
			ID: len(tr.spans) + 1, Parent: parent, Name: st.name, Op: op,
			Start: at, End: at + st.d,
		})
		at += st.d
	}
}

// snapshot returns a copy of the spans recorded so far.
func (tr *tracer) snapshot() []span {
	if tr == nil {
		return nil
	}
	return append([]span(nil), tr.spans...)
}

// timed runs f inside a span and returns the CPU time it used.  The
// duration comes from the caller's own clock reads, so traced and
// untraced runs time the call identically.
func (tr *tracer) timed(name, op string, parent int, f func()) time.Duration {
	id := tr.begin(name, op, parent)
	d := cpuTimeOf(f)
	tr.end(id)
	return d
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children: out[i] belongs to spans[i].  spans must hold
// whole subtrees.
func selfTimes(spans []span) []time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := time.Duration(0)
		cur := s.Start // the interval before cur is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps of the CPU clock), loadable in
// chrome://tracing or Perfetto.  The one caller's spans share one lane.
func (tr *tracer) writeChrome(path string) error {
	spans := tr.snapshot()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.dur()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
