package detector

import (
	"fmt"
	"sort"

	"bigfoot/internal/bfj"
	"bigfoot/internal/interp"
	"bigfoot/internal/shadow"
)

// Oracle is an address-precise happens-before detector driven by raw
// accesses (not checks): a FastTrack engine with one shadow location per
// field and per array element.  It is the ground truth for the
// precision tests: a check-driven detector is trace-precise on a run
// iff it reports a race exactly when the oracle does, and
// address-precise iff the reported locations match.
//
// The oracle keeps its shadow state in private maps (never in
// Object.Shadow), so it can observe the same execution as a detector
// under test via trace.Tee.
type Oracle struct {
	interp.NopHook
	clk clocks

	fields map[*interp.Object]map[string]*shadow.State
	elems  map[*interp.Array][]shadow.State
	arrIDs map[*interp.Array]int

	racyFields map[string]bool // "Class#id.f"
	racyElems  map[string]bool // "array#id[i]"
	racyPairs  []racyLoc
}

type racyLoc struct {
	ObjID   int
	Field   string
	ArrayID int
	Index   int
}

// NewOracle creates an oracle.
func NewOracle() *Oracle {
	return &Oracle{
		fields:     map[*interp.Object]map[string]*shadow.State{},
		elems:      map[*interp.Array][]shadow.State{},
		arrIDs:     map[*interp.Array]int{},
		racyFields: map[string]bool{},
		racyElems:  map[string]bool{},
	}
}

// Fork implements interp.Hook.
func (o *Oracle) Fork(parent, child int) { o.clk.fork(parent, child) }

// ThreadEnd implements interp.Hook.
func (o *Oracle) ThreadEnd(t int) { o.clk.end(t) }

// Join implements interp.Hook.
func (o *Oracle) Join(parent, child int) { o.clk.join(parent, child) }

// Acquire implements interp.Hook.
func (o *Oracle) Acquire(t int, lock *interp.Object) { o.clk.acquire(t, lock) }

// Release implements interp.Hook.
func (o *Oracle) Release(t int, lock *interp.Object) { o.clk.release(t, lock) }

// VolRead implements interp.Hook.
func (o *Oracle) VolRead(t int, obj *interp.Object, f string) { o.clk.volRead(t, obj, f) }

// VolWrite implements interp.Hook.
func (o *Oracle) VolWrite(t int, obj *interp.Object, f string) { o.clk.volWrite(t, obj, f) }

func (o *Oracle) fieldState(obj *interp.Object, f string) *shadow.State {
	m := o.fields[obj]
	if m == nil {
		m = map[string]*shadow.State{}
		o.fields[obj] = m
	}
	st := m[f]
	if st == nil {
		st = &shadow.State{}
		m[f] = st
	}
	return st
}

func (o *Oracle) access(t int, write bool, obj *interp.Object, f string, pos bfj.Pos) {
	st := o.fieldState(obj, f)
	if r := st.ApplyAt(write, t, o.clk.now(t), pos); r != nil {
		key := fmt.Sprintf("%s#%d.%s", obj.Class.Name, obj.ID, f)
		if !o.racyFields[key] {
			o.racyFields[key] = true
			o.racyPairs = append(o.racyPairs, racyLoc{ObjID: obj.ID, Field: f, ArrayID: -1})
		}
	}
}

func (o *Oracle) accessIdx(t int, write bool, a *interp.Array, i int, pos bfj.Pos) {
	es := o.elems[a]
	if es == nil {
		es = make([]shadow.State, a.Len())
		o.elems[a] = es
		o.arrIDs[a] = a.ID
	}
	if r := es[i].ApplyAt(write, t, o.clk.now(t), pos); r != nil {
		key := fmt.Sprintf("array#%d[%d]", a.ID, i)
		if !o.racyElems[key] {
			o.racyElems[key] = true
			o.racyPairs = append(o.racyPairs, racyLoc{ObjID: -1, ArrayID: a.ID, Index: i})
		}
	}
}

// ReadField implements interp.Hook.
func (o *Oracle) ReadField(t int, obj *interp.Object, f string, pos bfj.Pos) {
	o.access(t, false, obj, f, pos)
}

// WriteField implements interp.Hook.
func (o *Oracle) WriteField(t int, obj *interp.Object, f string, pos bfj.Pos) {
	o.access(t, true, obj, f, pos)
}

// ReadIndex implements interp.Hook.
func (o *Oracle) ReadIndex(t int, a *interp.Array, i int, pos bfj.Pos) {
	o.accessIdx(t, false, a, i, pos)
}

// WriteIndex implements interp.Hook.
func (o *Oracle) WriteIndex(t int, a *interp.Array, i int, pos bfj.Pos) {
	o.accessIdx(t, true, a, i, pos)
}

// HasRaces reports whether any race occurred in the observed trace.
func (o *Oracle) HasRaces() bool { return len(o.racyPairs) > 0 }

// RacyLocations returns the racy locations found.
func (o *Oracle) RacyLocations() []racyLoc { return o.racyPairs }

// RacyDescs returns sorted human-readable racy locations.
func (o *Oracle) RacyDescs() []string {
	var out []string
	for k := range o.racyFields {
		out = append(out, k)
	}
	for k := range o.racyElems {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FieldRacy reports whether the oracle saw a race on obj.field.
func (o *Oracle) FieldRacy(objID int, class, field string) bool {
	return o.racyFields[fmt.Sprintf("%s#%d.%s", class, objID, field)]
}

// IndexRacy reports whether the oracle saw a race on a specific array
// element.
func (o *Oracle) IndexRacy(arrayID, idx int) bool {
	return o.racyElems[fmt.Sprintf("array#%d[%d]", arrayID, idx)]
}
