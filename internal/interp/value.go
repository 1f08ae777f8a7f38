// Package interp executes BFJ programs on a deterministic,
// seed-controlled scheduler and surfaces every heap access, race check,
// and synchronization operation to a detector Hook.  It stands in for
// the JVM + RoadRunner event stream of the paper's evaluation: all
// detectors run on identical executions, so their relative overheads
// and check counts are directly comparable, and schedules are
// reproducible for precision testing.
package interp

import (
	"fmt"
	"unsafe"

	"bigfoot/internal/bfj"
)

// ValueKind tags the dynamic type of a BFJ value.
type ValueKind int

// Value kinds.  KindInt is the zero kind, so uninitialized fields and
// array elements read as integer 0 (matching Java's default values for
// the numeric programs BFJ models).
const (
	KindInt ValueKind = iota
	KindBool
	KindObject
	KindArray
	KindThread
)

// Value is a BFJ runtime value, three words wide: the kind, the integer
// (a bool is 0 or 1), and one reference whose pointee type the kind
// fixes.  Only the constructors below set the reference, always
// together with its kind, and it is read back only after a check of
// that kind (Obj, Arr, Th, and the interpreter's getObj and getArr).
// The fields a kind does not use are zero, so two values are equal
// exactly when their words are.
type Value struct {
	Kind ValueKind
	I    int64
	p    unsafe.Pointer
}

// IntVal builds an integer value.
func IntVal(i int64) Value { return Value{Kind: KindInt, I: i} }

// BoolVal builds a boolean value.
func BoolVal(b bool) Value {
	if b {
		return Value{Kind: KindBool, I: 1}
	}
	return Value{Kind: KindBool}
}

func objVal(o *Object) Value { return Value{Kind: KindObject, p: unsafe.Pointer(o)} }
func arrVal(a *Array) Value  { return Value{Kind: KindArray, p: unsafe.Pointer(a)} }
func thVal(t *Thread) Value  { return Value{Kind: KindThread, p: unsafe.Pointer(t)} }

// B returns a boolean value's truth (false for other kinds).
func (v Value) B() bool { return v.Kind == KindBool && v.I != 0 }

// Obj returns an object value's object, or nil for other kinds.
func (v Value) Obj() *Object {
	if v.Kind != KindObject {
		return nil
	}
	return (*Object)(v.p)
}

// Arr returns an array value's array, or nil for other kinds.
func (v Value) Arr() *Array {
	if v.Kind != KindArray {
		return nil
	}
	return (*Array)(v.p)
}

// Th returns a thread handle's thread, or nil for other kinds.
func (v Value) Th() *Thread {
	if v.Kind != KindThread {
		return nil
	}
	return (*Thread)(v.p)
}

// String renders the value for print statements.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindBool:
		return fmt.Sprintf("%t", v.B())
	case KindObject:
		return fmt.Sprintf("%s#%d", v.Obj().Class.Name, v.Obj().ID)
	case KindArray:
		return fmt.Sprintf("array#%d[%d]", v.Arr().ID, len(v.Arr().Elems))
	case KindThread:
		return fmt.Sprintf("thread#%d", v.Th().ID)
	default:
		return "?"
	}
}

// Object is a heap object: fields plus an intrinsic lock.
type Object struct {
	ID    int
	Class *bfj.Class

	// fields holds the values of the fields Class declares, indexed by
	// declaration order; extra holds, from its first write, any field
	// Class does not declare (bfj.CheckProgram resolves field names by
	// name alone, so a program may access one).
	fields []Value
	extra  map[string]Value

	// Intrinsic (reentrant) lock state, managed by the scheduler.
	lockOwner *Thread
	lockDepth int

	// Shadow is detector-owned per-object state.
	Shadow any
}

// Array is a heap array.
type Array struct {
	ID    int
	Elems []Value

	// Shadow is detector-owned per-array state.
	Shadow any
}

// Len returns the element count.
func (a *Array) Len() int { return len(a.Elems) }
