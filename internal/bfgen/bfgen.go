// Package bfgen generates random BFJ programs for differential testing
// of the race detectors.  The grammar is seeded and deterministic: the
// same (seed, Config) pair always yields the same program, so any
// failure reproduces from the seed alone.
//
// The grammar deliberately exercises every analysis feature of §5 of the
// paper, well beyond a fixed template:
//
//   - field reads/writes on plain objects, including a static alias
//     (two setup variables naming one object) so alias-sensitivity bugs
//     surface;
//   - grouped field access on a Vec class whose x/y/z fields travel
//     together (the field-proxy showcase);
//   - array reads/writes at constant indices, unit-stride loops, strided
//     loops, and nested 2D loops with affine index expressions;
//   - objects reached through an array of references (heap aliasing);
//   - lock-protected read-modify-writes, locked array slots, and nested
//     two-lock regions (locks are always acquired in a fixed global
//     order, so generated programs never deadlock);
//   - unlocked and locked method calls, including methods that loop over
//     array arguments;
//   - fork/join of method calls (immediately joined, so the serialized
//     metamorphic variant stays race-free);
//   - fast-path-sensitive shapes: same-thread access bursts (same-epoch
//     and ownership fast paths), lock-protected ownership loops (lock
//     re-acquisition and cross-thread handoffs), and read-shared churn —
//     two concurrent read-only forks followed by a parent read, driving
//     the adaptive read metadata through promotion and demotion;
//   - volatile publication pairs (write side and guarded read side).
//
// Programs may or may not race; the differential harness compares each
// detector against the oracle on whatever traces appear.
//
// Every Program also renders two metamorphic variants with known-safe
// oracles (see Locked and Serialized).
package bfgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config bounds the generated program shapes.  The zero value is
// normalized to DefaultConfig.
type Config struct {
	// MinThreads/MaxThreads bound the number of worker thread blocks.
	MinThreads, MaxThreads int
	// MinStmts/MaxStmts bound the top-level statement groups per thread.
	MinStmts, MaxStmts int
	// MaxDepth bounds if-nesting.
	MaxDepth int
	// NoVolatiles disables the volatile publication production, making
	// every generated program schedule-insensitive (see
	// Program.ScheduleSensitive).
	NoVolatiles bool
}

// DefaultConfig returns the standard fuzzing configuration.
func DefaultConfig() Config {
	return Config{MinThreads: 2, MaxThreads: 3, MinStmts: 3, MaxStmts: 6, MaxDepth: 3}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MinThreads <= 0 {
		c.MinThreads = d.MinThreads
	}
	if c.MaxThreads < c.MinThreads {
		c.MaxThreads = c.MinThreads
	}
	if c.MinStmts <= 0 {
		c.MinStmts = d.MinStmts
	}
	if c.MaxStmts < c.MinStmts {
		c.MaxStmts = c.MinStmts
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = d.MaxDepth
	}
	return c
}

// Program is one generated BFJ program plus the structure needed to
// render its metamorphic variants.
type Program struct {
	// Source is the program text.
	Source string
	// ScheduleSensitive reports whether the program contains
	// volatile-guarded heap accesses, whose execution depends on the
	// schedule.  Cross-detector executed-count invariants (equal access
	// counts, BF check count ≤ FT check count) only hold for
	// schedule-insensitive programs and are skipped otherwise.
	ScheduleSensitive bool

	// threads holds the rendered top-level statement groups of each
	// worker thread; each group is a self-contained compound (its locks
	// are acquired and released within the group).
	threads [][]string
}

// prelude declares the shared heap: two plain objects plus a static
// alias, a field-group Vec pair, an array of Vec references, two data
// arrays, and two ordered locks.  The gl object is reserved for the
// Locked metamorphic variant (unused by the plain rendering).
const prelude = `class Obj {
  field f, g, h;
  volatile field flag;
  method bump(k) {
    v = this.f;
    this.f = v + k;
  }
  method fill(arr, lo, hi, st) {
    for (m = lo; m < hi; m = m + st) { arr[m] = m; }
  }
  method total(arr, lo, hi) {
    s = 0;
    for (m = lo; m < hi; m = m + 1) { s = s + arr[m]; }
    this.h = s;
  }
  method lockedBump(l) {
    acquire l;
    v = this.g;
    this.g = v + 1;
    release l;
  }
  method peek(k) {
    u = this.g;
    u = u + k;
  }
}
class Vec {
  field x, y, z;
  method addTo(dx, dy, dz) {
    vx = this.x;
    this.x = vx + dx;
    vy = this.y;
    this.y = vy + dy;
    vz = this.z;
    this.z = vz + dz;
  }
}
setup {
  o1 = new Obj;
  o2 = new Obj;
  o3 = o1;
  v1 = new Vec;
  v2 = new Vec;
  vs = newarray 4;
  vs[0] = v1;
  vs[1] = v2;
  v3 = new Vec;
  vs[2] = v3;
  v4 = new Vec;
  vs[3] = v4;
  a1 = newarray 16;
  a2 = newarray 16;
  la = new Obj;
  lb = new Obj;
  gl = new Obj;
}
`

var (
	objs = []string{"o1", "o2", "o3"}
	flds = []string{"f", "g", "h"}
	arrs = []string{"a1", "a2"}
	vecs = []string{"v1", "v2"}
)

// New generates a program from a bare seed with the default config.
func New(seed int64) *Program {
	return Generate(rand.New(rand.NewSource(seed)), DefaultConfig())
}

// Generate draws one program from the grammar.
func Generate(rng *rand.Rand, cfg Config) *Program {
	cfg = cfg.withDefaults()
	p := &Program{}
	g := &gen{rng: rng, cfg: cfg}
	nThreads := cfg.MinThreads + rng.Intn(cfg.MaxThreads-cfg.MinThreads+1)
	for t := 0; t < nThreads; t++ {
		n := cfg.MinStmts + rng.Intn(cfg.MaxStmts-cfg.MinStmts+1)
		var groups []string
		for i := 0; i < n; i++ {
			groups = append(groups, g.group(1))
		}
		p.threads = append(p.threads, groups)
	}
	p.ScheduleSensitive = g.sensitive
	p.Source = render(p.threads, "", "")
	return p
}

// Locked renders the fully-locked metamorphic variant: every top-level
// statement group of every thread runs inside a global lock gl.  All
// worker heap accesses happen either inside a group (thus under gl) or
// inside a forked method whose fork and join both happen under gl — the
// forking thread holds gl across the join, so the forked accesses are
// lock-ordered with every other thread's accesses.  The variant is
// therefore race-free on every schedule, whatever the base program does.
func (p *Program) Locked() string {
	return render(p.threads, "  acquire gl;\n", "  release gl;\n")
}

// Serialized renders the single-thread serialization: all thread bodies
// concatenated into one worker thread in order.  Forks remain, but the
// grammar only emits forks that are either immediately joined or whose
// bodies are read-only (the read-shared-churn production's peek calls),
// so every conflicting access pair is ordered — the variant is
// race-free on every schedule.
func (p *Program) Serialized() string {
	var all []string
	for _, groups := range p.threads {
		all = append(all, groups...)
	}
	return render([][]string{all}, "", "")
}

// LoopNest renders a program whose one thread runs a depth-d nest of
// counting loops, i1 outermost, around one read and one write of the
// array element at index, an expression over id, n and i1..id.  An
// enclosing loop's invariant refinement re-analyzes every loop inside
// it, so the nest measures how StaticBF's work grows with depth.
func LoopNest(d int, index string) string {
	var b strings.Builder
	b.WriteString("setup { a = newarray 8; n = 4; id = 1; }\nthread {\n")
	for k := 1; k <= d; k++ {
		fmt.Fprintf(&b, "for (i%d = 0; i%d < n; i%d = i%d + 1) {\n", k, k, k, k)
	}
	fmt.Fprintf(&b, "x = a[%s];\na[%s] = x + 1;\n", index, index)
	b.WriteString(strings.Repeat("}\n", d))
	b.WriteString("}\n")
	return b.String()
}

func render(threads [][]string, pre, post string) string {
	var b strings.Builder
	b.WriteString(prelude)
	for _, groups := range threads {
		b.WriteString("thread {\n")
		for _, grp := range groups {
			b.WriteString(pre)
			b.WriteString(grp)
			b.WriteString(post)
		}
		b.WriteString("}\n")
	}
	return b.String()
}

type gen struct {
	rng       *rand.Rand
	cfg       Config
	sensitive bool
	tmp       int // unique temp-name counter
}

// fresh returns a unique temporary variable with the given stem.
func (g *gen) fresh(stem string) string {
	g.tmp++
	return fmt.Sprintf("%s%d", stem, g.tmp)
}

// group emits one self-contained top-level statement compound.
func (g *gen) group(depth int) string {
	var b strings.Builder
	g.stmt(&b, depth)
	return b.String()
}

func (g *gen) stmt(b *strings.Builder, depth int) {
	r := g.rng
	n := 19
	if g.cfg.NoVolatiles {
		n = 18
	}
	switch r.Intn(n) {
	case 0: // field read
		fmt.Fprintf(b, "  %s = %s.%s;\n", g.fresh("x"), objs[r.Intn(len(objs))], flds[r.Intn(len(flds))])
	case 1: // field write
		fmt.Fprintf(b, "  %s.%s = %d;\n", objs[r.Intn(len(objs))], flds[r.Intn(len(flds))], r.Intn(100))
	case 2: // array read at a constant index
		fmt.Fprintf(b, "  %s = %s[%d];\n", g.fresh("y"), arrs[r.Intn(len(arrs))], r.Intn(16))
	case 3: // array write at a constant index
		fmt.Fprintf(b, "  %s[%d] = %d;\n", arrs[r.Intn(len(arrs))], r.Intn(16), r.Intn(100))
	case 4: // loop over an array range, unit or larger stride
		a := arrs[r.Intn(len(arrs))]
		lo := r.Intn(8)
		hi := lo + 1 + r.Intn(16-lo)
		st := 1 + r.Intn(3)
		v := g.fresh("i")
		if r.Intn(2) == 0 {
			fmt.Fprintf(b, "  for (%s = %d; %s < %d; %s = %s + %d) { %s[%s] = %s; }\n",
				v, lo, v, hi, v, v, st, a, v, v)
		} else {
			fmt.Fprintf(b, "  for (%s = %d; %s < %d; %s = %s + %d) { %s = %s[%s]; }\n",
				v, lo, v, hi, v, v, st, g.fresh("t"), a, v)
		}
	case 5: // nested 2D loop with an affine index expression
		a := arrs[r.Intn(len(arrs))]
		vi, vj := g.fresh("i"), g.fresh("j")
		w := 2 + r.Intn(3) // row width 2..4, indices < 4*4 = 16
		if r.Intn(2) == 0 {
			fmt.Fprintf(b, "  for (%s = 0; %s < 4; %s = %s + 1) {\n    for (%s = 0; %s < %d; %s = %s + 1) { %s[%s * %d + %s] = %s + %s; }\n  }\n",
				vi, vi, vi, vi, vj, vj, w, vj, vj, a, vi, w, vj, vi, vj)
		} else {
			fmt.Fprintf(b, "  for (%s = 0; %s < 4; %s = %s + 1) {\n    for (%s = 0; %s < %d; %s = %s + 1) { %s = %s[%s * %d + %s]; }\n  }\n",
				vi, vi, vi, vi, vj, vj, w, vj, vj, g.fresh("t"), a, vi, w, vj)
		}
	case 6: // lock-protected field read-modify-write
		o := objs[r.Intn(len(objs))]
		f := flds[r.Intn(len(flds))]
		l := []string{"la", "lb"}[r.Intn(2)]
		v := g.fresh("r")
		fmt.Fprintf(b, "  acquire %s;\n  %s = %s.%s;\n  %s.%s = %s + 1;\n  release %s;\n",
			l, v, o, f, o, f, v, l)
	case 7: // nested two-lock region (always la before lb: no deadlock)
		o := objs[r.Intn(len(objs))]
		a := arrs[r.Intn(len(arrs))]
		k := r.Intn(16)
		v := g.fresh("r")
		fmt.Fprintf(b, "  acquire la;\n  acquire lb;\n  %s = %s.f;\n  %s[%d] = %s;\n  release lb;\n  release la;\n",
			v, o, a, k, v)
	case 8: // branch on a schedule-independent condition
		if depth < g.cfg.MaxDepth {
			fmt.Fprintf(b, "  if (%d > %d) {\n", r.Intn(10), r.Intn(10))
			g.stmt(b, depth+1)
			b.WriteString("  } else {\n")
			g.stmt(b, depth+1)
			b.WriteString("  }\n")
		} else {
			fmt.Fprintf(b, "  %s = %s.f;\n", g.fresh("x"), objs[r.Intn(len(objs))])
		}
	case 9: // lock-protected array slot
		a := arrs[r.Intn(len(arrs))]
		l := []string{"la", "lb"}[r.Intn(2)]
		fmt.Fprintf(b, "  acquire %s;\n  %s[%d] = %d;\n  release %s;\n", l, a, r.Intn(16), r.Intn(50), l)
	case 10: // unlocked method call (field RMW inside the callee)
		fmt.Fprintf(b, "  %s.bump(%d);\n", objs[r.Intn(len(objs))], r.Intn(5))
	case 11: // locked method call
		l := []string{"la", "lb"}[r.Intn(2)]
		fmt.Fprintf(b, "  %s.lockedBump(%s);\n", objs[r.Intn(len(objs))], l)
	case 12: // fork/join a method looping over an array argument
		a := arrs[r.Intn(len(arrs))]
		lo := r.Intn(8)
		hi := lo + 1 + r.Intn(16-lo)
		h := g.fresh("h")
		o := objs[r.Intn(len(objs))]
		if r.Intn(2) == 0 {
			st := 1 + r.Intn(2)
			fmt.Fprintf(b, "  %s = fork %s.fill(%s, %d, %d, %d);\n  join %s;\n", h, o, a, lo, hi, st, h)
		} else {
			fmt.Fprintf(b, "  %s = fork %s.total(%s, %d, %d);\n  join %s;\n", h, o, a, lo, hi, h)
		}
	case 13: // grouped field access through a Vec (proxy compression)
		if r.Intn(2) == 0 {
			fmt.Fprintf(b, "  %s.addTo(%d, %d, %d);\n", vecs[r.Intn(len(vecs))], r.Intn(5), r.Intn(5), r.Intn(5))
		} else {
			v := vecs[r.Intn(len(vecs))]
			x, y, z := g.fresh("p"), g.fresh("q"), g.fresh("s")
			fmt.Fprintf(b, "  %s = %s.x;\n  %s = %s.y;\n  %s = %s.z;\n", x, v, y, v, z, v)
		}
	case 14: // object reached through the reference array (heap aliasing)
		q := g.fresh("w")
		fmt.Fprintf(b, "  %s = vs[%d];\n", q, g.rng.Intn(4))
		if r.Intn(2) == 0 {
			fmt.Fprintf(b, "  %s.x = %d;\n", q, r.Intn(50))
		} else {
			fmt.Fprintf(b, "  %s.addTo(1, 1, 1);\n", q)
		}
	case 15: // same-thread access burst (same-epoch / ownership fast paths)
		o := objs[r.Intn(len(objs))]
		f := flds[r.Intn(len(flds))]
		a := arrs[r.Intn(len(arrs))]
		k := r.Intn(16)
		x, y := g.fresh("sb"), g.fresh("sc")
		fmt.Fprintf(b, "  %s.%s = %d;\n  %s = %s.%s;\n  %s.%s = %s + 1;\n  %s = %s[%d];\n  %s[%d] = %s + %s;\n",
			o, f, r.Intn(20), x, o, f, o, f, x, y, a, k, a, k, x, y)
	case 16: // lock-protected ownership loop (lock re-acquire by one thread;
		// handoffs happen when two threads draw this production on one lock)
		o := objs[r.Intn(len(objs))]
		f := flds[r.Intn(len(flds))]
		l := []string{"la", "lb"}[r.Intn(2)]
		v := g.fresh("i")
		rr := g.fresh("r")
		fmt.Fprintf(b, "  for (%s = 0; %s < %d; %s = %s + 1) {\n    acquire %s;\n    %s = %s.%s;\n    %s.%s = %s + 1;\n    release %s;\n  }\n",
			v, v, 2+r.Intn(3), v, v, l, rr, o, f, o, f, rr, l)
	case 17: // read-shared churn: two concurrent read-only forks promote a
		// field to read-shared, the parent's read after both joins
		// re-establishes exclusivity (demotion under adaptive metadata).
		// peek only reads shared state, so both metamorphic variants stay
		// race-free even with two forked threads live at once.
		o := objs[r.Intn(len(objs))]
		h1, h2, x := g.fresh("h"), g.fresh("h"), g.fresh("x")
		fmt.Fprintf(b, "  %s = fork %s.peek(%d);\n  %s = fork %s.peek(%d);\n  join %s;\n  join %s;\n  %s = %s.g;\n",
			h1, o, r.Intn(5), h2, o, r.Intn(5), h1, h2, x, o)
	case 18: // volatile publication pair (schedule-sensitive)
		g.sensitive = true
		o := objs[r.Intn(2)] // o1 or o2 (o3 aliases o1; keep pairs obvious)
		if r.Intn(2) == 0 {
			fmt.Fprintf(b, "  %s.g = %d;\n  %s.flag = 1;\n", o, r.Intn(50), o)
		} else {
			fl, rd := g.fresh("fl"), g.fresh("rd")
			fmt.Fprintf(b, "  %s = %s.flag;\n  if (%s > 0) { %s = %s.g; }\n", fl, o, fl, rd, o)
		}
	}
}
