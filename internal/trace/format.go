package trace

// This file defines the persistent compressed trace format: a run is
// recorded once (Writer implements interp.Hook on the live event
// stream) and replayed offline (Reader feeds the identical stream back
// into any hook — a detector, a Recorder, a counter) without
// re-interpreting the program.
//
// Layout ("BFTR" format, version 1):
//
//	magic "BFTR" | version byte
//	uvarint len  | Header JSON   (program identity, variant, proxy table)
//	chunk*       | uvarint count>0, uvarint len, payload
//	uvarint 0    | chunk-stream terminator
//	uvarint len  | Footer JSON   (event total, interp.Counters, run error)
//
// Chunks bound the decoder's working set (streaming reads decode one
// payload at a time); compression dictionaries persist across chunks
// because reading is strictly sequential.  Within a payload, each event
// is a head byte — opcode in the low 5 bits, a write flag, and a
// same-thread-as-previous flag that elides the thread id on the common
// single-thread run — followed by op-specific operands:
//
//	strings      interned: uvarint id, 0 ⇒ new (uvarint len + bytes)
//	objects      uvarint id; first occurrence appends its class string
//	arrays       uvarint id; first occurrence appends uvarint length
//	check sites  uvarint fc.Index; first occurrence appends the field
//	             list (string refs) and position set
//	positions    uvarint line + uvarint col; position sets interned
//	             like strings (uvarint id, 0 ⇒ new)
//	integers     varint (zigzag) where negative values are possible
//	             (range bounds/steps), uvarint otherwise
//
// Only interp.Hook events are persisted.  Detector-side Observer events
// (fp-commit, refine, read-shared) are derived values: replaying the
// hook stream through the same detector re-derives them exactly, so
// storing them would be redundant.
//
// The footer carries the interpreter's deterministic counters and the
// run's error, making a trace self-contained: replay reconstructs the
// full engine.Outcome (counters from the footer, detector costs from
// re-detection) without the program source.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"bigfoot/internal/bfj"
	"bigfoot/internal/interp"
)

// FormatVersion identifies the on-disk trace encoding.  Bumped on any
// change to the layout above; Reader rejects unknown versions.
const FormatVersion = 1

var magic = [4]byte{'B', 'F', 'T', 'R'}

// Header identifies what a trace records: the program, the variant
// whose placement produced the check stream, and everything a replay
// needs to reconstruct the detector configuration (footprint mode is
// derivable from the variant; the proxy table is not, so it is stored).
type Header struct {
	// Program and Suite label the workload (report identity).
	Program string `json:"program,omitempty"`
	Suite   string `json:"suite,omitempty"`
	// Variant is the canonical detector name whose instrumented artifact
	// produced this stream, or "base" for an uninstrumented run.
	Variant string `json:"variant"`
	// ProxyRep is the variant's static field→representative proxy
	// mapping (nil for variants without proxies), serialized so replay
	// reconstructs the exact detector grouping.
	ProxyRep map[string]string `json:"proxy_rep,omitempty"`
	// Seed and MaxSteps record the budgets the run executed under.
	Seed     int64  `json:"seed"`
	MaxSteps uint64 `json:"max_steps,omitempty"`
	// Bodies and Placed are the static placement stats (harness report
	// identity: methods analyzed, BigFoot checks inserted).
	Bodies int `json:"bodies,omitempty"`
	Placed int `json:"placed,omitempty"`
}

// Footer closes a trace with the run's deterministic outcome.
type Footer struct {
	// Events is the total number of recorded hook events; Reader verifies
	// it against the decoded count, so truncated files fail loudly.
	Events uint64 `json:"events"`
	// Counters are the interpreter's deterministic counters for the run.
	Counters interp.Counters `json:"counters"`
	// Err is the run's failure ("" for success): step limit, timeout,
	// runtime fault.  Recorded so replay reports a failed run as failed.
	Err string `json:"err,omitempty"`
}

// Event opcodes, one per interp.Hook callback.
const (
	opFork byte = iota
	opThreadEnd
	opJoin
	opAcquire
	opRelease
	opVolRead
	opVolWrite
	opReadField
	opWriteField
	opReadIndex
	opWriteIndex
	opCheckField
	opCheckRange
	opFinish
)

// Event head-byte layout: opcode in the low 5 bits plus two flags.
const (
	opMask         byte = 0x1f
	flagWrite      byte = 0x20
	flagSameThread byte = 0x40
)

// DefaultWriterChunk is the number of events per compressed chunk: big
// enough that varint dictionaries amortize, small enough that a
// streaming reader holds only a few KiB of payload at a time.
const DefaultWriterChunk = 4096

// Writer encodes the live hook stream into the persistent format.  It
// implements interp.Hook, so it composes into the engine's hook chain
// (first, ahead of detector and recorder).  Hook callbacks cannot
// return errors; I/O failures are sticky and surface from Close.
type Writer struct {
	w   *bufio.Writer
	buf []byte // current chunk payload
	n   int    // events in the current chunk
	max int    // events per chunk

	total uint64
	err   error

	strs    map[string]uint64
	objs    map[int]bool
	arrs    map[int]bool
	sites   map[int]bool
	posSets map[string]uint64
	keybuf  []byte // scratch for position-set dictionary keys

	lastT  int
	closed bool
}

// NewWriter starts a trace: magic, version, and header are written
// immediately.  Call Close exactly once after the run to flush the last
// chunk and append the footer.
func NewWriter(w io.Writer, hdr Header) (*Writer, error) {
	tw := &Writer{
		w:       bufio.NewWriter(w),
		max:     DefaultWriterChunk,
		strs:    map[string]uint64{},
		objs:    map[int]bool{},
		arrs:    map[int]bool{},
		sites:   map[int]bool{},
		posSets: map[string]uint64{},
		lastT:   -1,
	}
	if _, err := tw.w.Write(magic[:]); err != nil {
		return nil, err
	}
	if err := tw.w.WriteByte(FormatVersion); err != nil {
		return nil, err
	}
	if err := writeJSONBlock(tw.w, hdr); err != nil {
		return nil, err
	}
	return tw, nil
}

// writeJSONBlock writes a uvarint-length-prefixed JSON value.
func writeJSONBlock(w *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var lb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lb[:], uint64(len(b)))
	if _, err := w.Write(lb[:n]); err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Close flushes the final chunk, writes the terminator and footer, and
// returns the first error encountered anywhere in the stream.  runErr
// is the run's outcome error (nil for success); it and the counters are
// persisted so replay can reconstruct the outcome.  Close does not
// close the underlying io.Writer.
func (tw *Writer) Close(c interp.Counters, runErr error) error {
	if tw.closed {
		return tw.err
	}
	tw.closed = true
	tw.flushChunk()
	ftr := Footer{Events: tw.total, Counters: c}
	if runErr != nil {
		ftr.Err = runErr.Error()
	}
	if tw.err == nil {
		var lb [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(lb[:], 0) // chunk-stream terminator
		if _, err := tw.w.Write(lb[:n]); err != nil {
			tw.err = err
		} else if err := writeJSONBlock(tw.w, ftr); err != nil {
			tw.err = err
		}
	}
	if err := tw.w.Flush(); err != nil && tw.err == nil {
		tw.err = err
	}
	return tw.err
}

func (tw *Writer) flushChunk() {
	if tw.n == 0 || tw.err != nil {
		tw.buf = tw.buf[:0]
		tw.n = 0
		return
	}
	var lb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lb[:], uint64(tw.n))
	if _, err := tw.w.Write(lb[:n]); err != nil {
		tw.err = err
	} else {
		n = binary.PutUvarint(lb[:], uint64(len(tw.buf)))
		if _, err := tw.w.Write(lb[:n]); err != nil {
			tw.err = err
		} else if _, err := tw.w.Write(tw.buf); err != nil {
			tw.err = err
		}
	}
	tw.buf = tw.buf[:0]
	tw.n = 0
}

// --- encoding primitives -------------------------------------------------

func (tw *Writer) u(v uint64) { tw.buf = binary.AppendUvarint(tw.buf, v) }
func (tw *Writer) i(v int64)  { tw.buf = binary.AppendVarint(tw.buf, v) }

// str appends an interned string reference.
func (tw *Writer) str(s string) {
	if id, ok := tw.strs[s]; ok {
		tw.u(id)
		return
	}
	tw.u(0)
	tw.u(uint64(len(s)))
	tw.buf = append(tw.buf, s...)
	tw.strs[s] = uint64(len(tw.strs)) + 1
}

// obj appends an object reference, registering class identity on first
// occurrence.
func (tw *Writer) obj(o *interp.Object) {
	tw.u(uint64(o.ID))
	if !tw.objs[o.ID] {
		tw.objs[o.ID] = true
		tw.str(o.Class.Name)
	}
}

// arr appends an array reference, registering its length on first
// occurrence.
func (tw *Writer) arr(a *interp.Array) {
	tw.u(uint64(a.ID))
	if !tw.arrs[a.ID] {
		tw.arrs[a.ID] = true
		tw.u(uint64(a.Len()))
	}
}

func (tw *Writer) pos(p bfj.Pos) {
	tw.u(uint64(p.Line))
	tw.u(uint64(p.Col))
}

// posSet appends an interned position-set reference.
func (tw *Writer) posSet(poss []bfj.Pos) {
	tw.keybuf = tw.keybuf[:0]
	for _, p := range poss {
		tw.keybuf = binary.AppendUvarint(tw.keybuf, uint64(p.Line))
		tw.keybuf = binary.AppendUvarint(tw.keybuf, uint64(p.Col))
	}
	key := string(tw.keybuf)
	if id, ok := tw.posSets[key]; ok {
		tw.u(id)
		return
	}
	tw.u(0)
	tw.u(uint64(len(poss)))
	tw.buf = append(tw.buf, tw.keybuf...)
	tw.posSets[key] = uint64(len(tw.posSets)) + 1
}

// site appends a field-check site reference, registering the site's
// compile-time identity (field list, position set) on first occurrence.
func (tw *Writer) site(fc *interp.FieldCheck) {
	tw.u(uint64(fc.Index))
	if !tw.sites[fc.Index] {
		tw.sites[fc.Index] = true
		tw.u(uint64(len(fc.Fields)))
		for _, f := range fc.Fields {
			tw.str(f)
		}
		tw.posSet(fc.Poss)
	}
}

// head begins one event: head byte plus thread id when it changed.
func (tw *Writer) head(op byte, t int, write bool) {
	b := op
	if write {
		b |= flagWrite
	}
	if t == tw.lastT {
		b |= flagSameThread
	}
	tw.buf = append(tw.buf, b)
	if t != tw.lastT {
		tw.u(uint64(t))
		tw.lastT = t
	}
}

// end closes one event, flushing the chunk at the deterministic batch
// boundary.
func (tw *Writer) end() {
	tw.n++
	tw.total++
	if tw.n >= tw.max {
		tw.flushChunk()
	}
}

// --- interp.Hook ---------------------------------------------------------

// Fork implements interp.Hook.
func (tw *Writer) Fork(parent, child int) {
	tw.head(opFork, parent, false)
	tw.u(uint64(child))
	tw.end()
}

// ThreadEnd implements interp.Hook.
func (tw *Writer) ThreadEnd(t int) {
	tw.head(opThreadEnd, t, false)
	tw.end()
}

// Join implements interp.Hook.
func (tw *Writer) Join(parent, child int) {
	tw.head(opJoin, parent, false)
	tw.u(uint64(child))
	tw.end()
}

// Acquire implements interp.Hook.
func (tw *Writer) Acquire(t int, lock *interp.Object) {
	tw.head(opAcquire, t, false)
	tw.obj(lock)
	tw.end()
}

// Release implements interp.Hook.
func (tw *Writer) Release(t int, lock *interp.Object) {
	tw.head(opRelease, t, false)
	tw.obj(lock)
	tw.end()
}

// VolRead implements interp.Hook.
func (tw *Writer) VolRead(t int, o *interp.Object, field string) {
	tw.head(opVolRead, t, false)
	tw.obj(o)
	tw.str(field)
	tw.end()
}

// VolWrite implements interp.Hook.
func (tw *Writer) VolWrite(t int, o *interp.Object, field string) {
	tw.head(opVolWrite, t, true)
	tw.obj(o)
	tw.str(field)
	tw.end()
}

// ReadField implements interp.Hook.
func (tw *Writer) ReadField(t int, o *interp.Object, field string, pos bfj.Pos) {
	tw.head(opReadField, t, false)
	tw.obj(o)
	tw.str(field)
	tw.pos(pos)
	tw.end()
}

// WriteField implements interp.Hook.
func (tw *Writer) WriteField(t int, o *interp.Object, field string, pos bfj.Pos) {
	tw.head(opWriteField, t, true)
	tw.obj(o)
	tw.str(field)
	tw.pos(pos)
	tw.end()
}

// ReadIndex implements interp.Hook.
func (tw *Writer) ReadIndex(t int, a *interp.Array, i int, pos bfj.Pos) {
	tw.head(opReadIndex, t, false)
	tw.arr(a)
	tw.i(int64(i))
	tw.pos(pos)
	tw.end()
}

// WriteIndex implements interp.Hook.
func (tw *Writer) WriteIndex(t int, a *interp.Array, i int, pos bfj.Pos) {
	tw.head(opWriteIndex, t, true)
	tw.arr(a)
	tw.i(int64(i))
	tw.pos(pos)
	tw.end()
}

// CheckField implements interp.Hook.
func (tw *Writer) CheckField(t int, write bool, o *interp.Object, fc *interp.FieldCheck) {
	tw.head(opCheckField, t, write)
	tw.obj(o)
	tw.site(fc)
	tw.end()
}

// CheckRange implements interp.Hook.
func (tw *Writer) CheckRange(t int, write bool, a *interp.Array, lo, hi, step int, poss []bfj.Pos) {
	tw.head(opCheckRange, t, write)
	tw.arr(a)
	tw.i(int64(lo))
	tw.i(int64(hi))
	tw.i(int64(step))
	tw.posSet(poss)
	tw.end()
}

// Finish implements interp.Hook.
func (tw *Writer) Finish() {
	tw.head(opFinish, 0, false)
	tw.end()
}

// --- Reader --------------------------------------------------------------

// Reader decodes a persistent trace and replays it through a hook.  It
// reads strictly sequentially: NewReader consumes the header, Replay
// streams the chunks, and Footer is valid once Replay has returned.
//
// Replay synthesizes stable stand-ins for the live run's heap entities:
// one *interp.Object per recorded object id (same ID, same class name),
// one *interp.Array per array id (same ID and length), one
// *interp.FieldCheck per check site (same Index, Fields, Poss).  Those
// are exactly the fields detectors and recorders consume, so the
// replayed stream is observationally identical to the live one.  The
// arrays are charged as a live run charges them (length+1 words), and a
// trace whose arrays pass interp.MaxHeapWords fails to decode: no live
// run could have recorded it.
type Reader struct {
	r   *bufio.Reader
	hdr Header
	ftr Footer

	strs    []string
	objs    map[uint64]*interp.Object
	arrs    map[uint64]*interp.Array
	sites   map[uint64]*interp.FieldCheck
	posSets [][]bfj.Pos
	classes map[string]*bfj.Class

	heapWords uint64 // words charged for the arrays decoded so far

	lastT    int
	total    uint64
	replayed bool
}

// NewReader opens a trace stream and decodes its header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: read magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %q (not a BFTR trace)", m[:])
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("trace: read version: %w", err)
	}
	if ver != FormatVersion {
		return nil, fmt.Errorf("trace: format version %d, this build reads %d", ver, FormatVersion)
	}
	rd := &Reader{
		r:       br,
		objs:    map[uint64]*interp.Object{},
		arrs:    map[uint64]*interp.Array{},
		sites:   map[uint64]*interp.FieldCheck{},
		classes: map[string]*bfj.Class{},
		lastT:   -1,
	}
	if err := readJSONBlock(br, &rd.hdr); err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	return rd, nil
}

// readJSONBlock reads a uvarint-length-prefixed JSON value.
func readJSONBlock(br *bufio.Reader, v any) error {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if n > 1<<24 {
		return fmt.Errorf("block length %d implausible", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// Header returns the trace's header.
func (rd *Reader) Header() Header { return rd.hdr }

// Footer returns the trace's footer; valid only after Replay returned
// successfully.
func (rd *Reader) Footer() Footer { return rd.ftr }

// Replay streams every recorded event into h in recorded order and
// returns the event count.  It verifies the footer's event total, so a
// truncated trace errors instead of replaying silently short.
func (rd *Reader) Replay(h interp.Hook) (uint64, error) {
	if rd.replayed {
		return rd.total, errors.New("trace: Replay called twice")
	}
	rd.replayed = true
	var payload []byte
	for {
		nev, err := binary.ReadUvarint(rd.r)
		if err != nil {
			return rd.total, fmt.Errorf("trace: chunk header: %w", err)
		}
		if nev == 0 {
			break // terminator
		}
		plen, err := binary.ReadUvarint(rd.r)
		if err != nil {
			return rd.total, fmt.Errorf("trace: chunk length: %w", err)
		}
		if plen > 1<<28 {
			return rd.total, fmt.Errorf("trace: chunk payload %d implausible", plen)
		}
		if uint64(cap(payload)) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(rd.r, payload); err != nil {
			return rd.total, fmt.Errorf("trace: chunk payload: %w", err)
		}
		dec := decoder{buf: payload}
		for i := uint64(0); i < nev; i++ {
			if err := rd.event(&dec, h); err != nil {
				return rd.total, err
			}
			rd.total++
		}
		if dec.err != nil {
			return rd.total, fmt.Errorf("trace: chunk decode: %w", dec.err)
		}
		if dec.off != len(payload) {
			return rd.total, fmt.Errorf("trace: chunk has %d trailing bytes", len(payload)-dec.off)
		}
	}
	if err := readJSONBlock(rd.r, &rd.ftr); err != nil {
		return rd.total, fmt.Errorf("trace: footer: %w", err)
	}
	if rd.ftr.Events != rd.total {
		return rd.total, fmt.Errorf("trace: footer says %d events, decoded %d (truncated or corrupt)", rd.ftr.Events, rd.total)
	}
	return rd.total, nil
}

// decoder is a cursor over one chunk payload with a sticky error.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s at offset %d", what, d.off)
	}
}

func (d *decoder) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("unexpected end of chunk")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)-d.off) < n {
		d.fail("string runs past chunk end")
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// --- decode-side dictionaries -------------------------------------------

func (rd *Reader) str(d *decoder) string {
	id := d.u()
	if id == 0 {
		n := d.u()
		s := string(d.bytes(n))
		rd.strs = append(rd.strs, s)
		return s
	}
	if id > uint64(len(rd.strs)) {
		d.fail("string ref out of range")
		return ""
	}
	return rd.strs[id-1]
}

func (rd *Reader) obj(d *decoder) *interp.Object {
	id := d.u()
	if o, ok := rd.objs[id]; ok {
		return o
	}
	name := rd.str(d)
	cls := rd.classes[name]
	if cls == nil {
		cls = &bfj.Class{Name: name}
		rd.classes[name] = cls
	}
	o := &interp.Object{ID: int(id), Class: cls}
	rd.objs[id] = o
	return o
}

func (rd *Reader) arr(d *decoder) *interp.Array {
	id := d.u()
	if a, ok := rd.arrs[id]; ok {
		return a
	}
	n := d.u()
	if n >= interp.MaxHeapWords || n+1 > interp.MaxHeapWords-rd.heapWords {
		d.fail(fmt.Sprintf("array of length %d takes the replayed heap past %d words (interp.MaxHeapWords)", n, interp.MaxHeapWords))
		return nil
	}
	rd.heapWords += n + 1
	a := &interp.Array{ID: int(id), Elems: make([]interp.Value, n)}
	rd.arrs[id] = a
	return a
}

func (rd *Reader) pos(d *decoder) bfj.Pos {
	line := d.u()
	col := d.u()
	return bfj.Pos{Line: int(line), Col: int(col)}
}

func (rd *Reader) posSet(d *decoder) []bfj.Pos {
	id := d.u()
	if id == 0 {
		n := d.u()
		if n > 1<<20 {
			d.fail("position set implausible")
			return nil
		}
		var ps []bfj.Pos
		if n > 0 {
			ps = make([]bfj.Pos, n)
			for i := range ps {
				ps[i] = rd.pos(d)
			}
		}
		rd.posSets = append(rd.posSets, ps)
		return ps
	}
	if id > uint64(len(rd.posSets)) {
		d.fail("position-set ref out of range")
		return nil
	}
	return rd.posSets[id-1]
}

func (rd *Reader) site(d *decoder) *interp.FieldCheck {
	id := d.u()
	if fc, ok := rd.sites[id]; ok {
		return fc
	}
	n := d.u()
	if n > 1<<20 {
		d.fail("field list implausible")
		return nil
	}
	fields := make([]string, n)
	for i := range fields {
		fields[i] = rd.str(d)
	}
	fc := &interp.FieldCheck{Index: int(id), Fields: fields, Poss: rd.posSet(d)}
	rd.sites[id] = fc
	return fc
}

// event decodes and dispatches one event.  Operands are fully decoded
// (and the decoder checked) before the hook is invoked, so a corrupt
// trace produces an error, never a hook call on garbage values.
func (rd *Reader) event(d *decoder, h interp.Hook) error {
	head := d.byte()
	op := head & opMask
	write := head&flagWrite != 0
	t := rd.lastT
	if head&flagSameThread == 0 {
		t = int(d.u())
		rd.lastT = t
	}
	var (
		peer    int
		o       *interp.Object
		a       *interp.Array
		fc      *interp.FieldCheck
		field   string
		p       bfj.Pos
		poss    []bfj.Pos
		x, y, z int
	)
	switch op {
	case opFork, opJoin:
		peer = int(d.u())
	case opThreadEnd, opFinish:
	case opAcquire, opRelease:
		o = rd.obj(d)
	case opVolRead, opVolWrite:
		o = rd.obj(d)
		field = rd.str(d)
	case opReadField, opWriteField:
		o = rd.obj(d)
		field = rd.str(d)
		p = rd.pos(d)
	case opReadIndex, opWriteIndex:
		a = rd.arr(d)
		x = int(d.i())
		p = rd.pos(d)
	case opCheckField:
		o = rd.obj(d)
		fc = rd.site(d)
	case opCheckRange:
		a = rd.arr(d)
		x = int(d.i())
		y = int(d.i())
		z = int(d.i())
		poss = rd.posSet(d)
		// The interpreter clamps every checked range into its array, and
		// the detectors rely on it (footprint entries hold int32 bounds),
		// so no live run records a range that is not.
		if a != nil && !(0 <= x && x < y && y <= a.Len() && z >= 1) {
			d.fail(fmt.Sprintf("check range [%d,%d):%d outside an array of length %d", x, y, z, a.Len()))
		}
	default:
		return fmt.Errorf("trace: unknown opcode %d at event %d", op, rd.total)
	}
	if d.err != nil {
		return fmt.Errorf("trace: event %d: %w", rd.total, d.err)
	}
	switch op {
	case opFork:
		h.Fork(t, peer)
	case opThreadEnd:
		h.ThreadEnd(t)
	case opJoin:
		h.Join(t, peer)
	case opAcquire:
		h.Acquire(t, o)
	case opRelease:
		h.Release(t, o)
	case opVolRead:
		h.VolRead(t, o, field)
	case opVolWrite:
		h.VolWrite(t, o, field)
	case opReadField:
		h.ReadField(t, o, field, p)
	case opWriteField:
		h.WriteField(t, o, field, p)
	case opReadIndex:
		h.ReadIndex(t, a, x, p)
	case opWriteIndex:
		h.WriteIndex(t, a, x, p)
	case opCheckField:
		h.CheckField(t, write, o, fc)
	case opCheckRange:
		h.CheckRange(t, write, a, x, y, z, poss)
	case opFinish:
		h.Finish()
	}
	return nil
}
