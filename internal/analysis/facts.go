// Package analysis implements BigFoot's static check-placement algorithm
// (Fig. 7 of the paper): a combined forward/backward intraprocedural
// dataflow analysis over history contexts (boolean facts, past accesses
// p✁, past checks p✓) and anticipated contexts (p✸), which defers,
// eliminates, moves, and coalesces race checks.
//
// The implementation follows the multi-pass structure of §5:
//
//	pass 0  rename insertion (freshness of assignment targets)
//	pass 1  forward history (boolean/alias facts and past accesses),
//	        with loop-invariant inference by predicate abstraction
//	pass 2  backward anticipated accesses
//	pass 3  forward check placement and past-check facts, emitting the
//	        instrumented method body
//
// Read and write accesses are distinguished throughout (§5): a write
// check covers read and write accesses; a read check covers only reads.
package analysis

import (
	"fmt"
	"slices"
	"strings"

	"bigfoot/internal/bfj"
	"bigfoot/internal/entail"
	"bigfoot/internal/expr"
)

// Fact is a history fact: a boolean/alias expression, a past access p✁,
// or a past check p✓.
type Fact interface {
	Key() string
	isFact()
}

// BoolFact records a boolean or heap-alias expression known to hold.
type BoolFact struct {
	E expr.Expr
}

// AccessFact records a past access p✁ with no subsequent release.
// Positions is the set of source positions of the access statements the
// fact stands for; it is metadata excluded from Key(), so facts with
// the same kind and path unify regardless of where the accesses sit.
type AccessFact struct {
	Kind      bfj.AccessKind
	Path      expr.Path
	Positions []bfj.Pos
}

// CheckFact records a past check p✓ with no subsequent release.
type CheckFact struct {
	Kind bfj.AccessKind
	Path expr.Path
}

func (BoolFact) isFact()   {}
func (AccessFact) isFact() {}
func (CheckFact) isFact()  {}

// Key returns a syntactic deduplication key.
func (f BoolFact) Key() string {
	var buf [64]byte
	return string(expr.Append(append(buf[:0], "B:"...), f.E))
}

// Key returns a syntactic deduplication key.
func (f AccessFact) Key() string { return pathKey('A', f.Kind, f.Path) }

// Key returns a syntactic deduplication key.
func (f CheckFact) Key() string { return pathKey('C', f.Kind, f.Path) }

// pathKey renders a path fact's key: the fact's letter, its kind tag,
// ':' and the path.
func pathKey(letter byte, k bfj.AccessKind, p expr.Path) string {
	var buf [64]byte
	return string(p.Append(append(buf[:0], letter, kindTag(k)[0], ':')))
}

func kindTag(k bfj.AccessKind) string {
	if k == bfj.Write {
		return "w"
	}
	return "r"
}

// String renders the fact in the paper's notation.
func (f BoolFact) String() string { return f.E.String() }

// String renders the fact in the paper's notation.
func (f AccessFact) String() string { return f.Path.String() + "✁" + kindTag(f.Kind) }

// String renders the fact in the paper's notation.
func (f CheckFact) String() string { return f.Path.String() + "✓" + kindTag(f.Kind) }

// AntFact is an anticipated access p✸: the continuation will access the
// path with no intervening acquire.
type AntFact struct {
	Kind bfj.AccessKind
	Path expr.Path
}

// Key returns a syntactic deduplication key.
func (f AntFact) Key() string { return pathKey('T', f.Kind, f.Path) }

// String renders the fact in the paper's notation.
func (f AntFact) String() string { return f.Path.String() + "✸" + kindTag(f.Kind) }

// ---------------------------------------------------------------------------
// History
// ---------------------------------------------------------------------------

// History is a set of facts H. The zero value is the empty history.
// Histories are persistent: mutating operations return new values.
type History struct {
	// facts is sorted by key, one fact per key.
	facts []keyed[Fact]
	// solver memoizes the entailment solver over the boolean facts.  The
	// cell is shared by copies of the same history value and by the
	// histories derived from it without touching its boolean facts.
	solver *solverCell
}

// keyed is one element of a key-sorted fact list.
type keyed[F any] struct {
	key string
	f   F
}

// findKey returns the index of key in the key-sorted fs, or where it
// would be inserted.
func findKey[F any](fs []keyed[F], key string) (int, bool) {
	return slices.BinarySearchFunc(fs, key, func(kf keyed[F], k string) int { return strings.Compare(kf.key, k) })
}

// insertKeyed adds kf to the key-sorted fs in place; where fs already
// has the key, merge(old, new) becomes the fact.
func insertKeyed[F any](fs []keyed[F], kf keyed[F], merge func(old, f F) F) []keyed[F] {
	i, found := findKey(fs, kf.key)
	if found {
		fs[i].f = merge(fs[i].f, kf.f)
		return fs
	}
	return slices.Insert(fs, i, kf)
}

// unionKeys calls visit, in key order, once for each key of the
// key-sorted a and b, with a's element where both have the key.
func unionKeys[F any](a, b []keyed[F], visit func(keyed[F])) {
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].key < b[0].key:
			visit(a[0])
			a = a[1:]
		case len(a) == 0 || b[0].key < a[0].key:
			visit(b[0])
			b = b[1:]
		default:
			visit(a[0])
			a, b = a[1:], b[1:]
		}
	}
}

type solverCell struct {
	s *entail.Solver
	// tab is the table of the body the history belongs to (nil outside
	// a body analysis); derived histories inherit it.
	tab *solverTable
}

// solverTable shares solvers among the histories of one body analysis:
// every history with the same boolean facts gets the same solver, and so
// the same query caches.  A body job owns its table and drops it with
// the body, so a table is never reached from two goroutines.
type solverTable struct {
	byFacts map[string]*entail.Solver
}

func newSolverTable() *solverTable {
	return &solverTable{byFacts: map[string]*entail.Solver{}}
}

// NewHistory builds a history from the given facts.
func NewHistory(facts ...Fact) History {
	return History{}.withFacts(facts...)
}

// bodyHistory is the empty history of a body analysis that shares
// solvers through tab.
func bodyHistory(tab *solverTable) History {
	return History{solver: &solverCell{tab: tab}}
}

// withFacts builds a history from the given facts, added in order, in
// h's body (its solver table) but with none of h's facts.
func (h History) withFacts(facts ...Fact) History {
	n := History{facts: make([]keyed[Fact], 0, len(facts)), solver: &solverCell{tab: h.table()}}
	for _, f := range facts {
		n.facts = insertFact(n.facts, f)
	}
	return n
}

func (h History) table() *solverTable {
	if h.solver == nil {
		return nil
	}
	return h.solver.tab
}

// insertFact adds f to the key-sorted fs in place, merging it into an
// existing fact with the same key.
func insertFact(fs []keyed[Fact], f Fact) []keyed[Fact] {
	return insertKeyed(fs, keyed[Fact]{f.Key(), f}, mergeFactPositions)
}

// mergeFactPositions unions the position metadata when a new access fact
// replaces an existing fact with the same key (same kind and path, seen
// at a different source position), so a check later derived from the
// fact covers every contributing access site.
func mergeFactPositions(old, f Fact) Fact {
	if old == nil {
		return f
	}
	na, ok1 := f.(AccessFact)
	oa, ok2 := old.(AccessFact)
	if !ok1 || !ok2 || len(oa.Positions) == 0 {
		return f
	}
	na.Positions = bfj.UnionPos(oa.Positions, na.Positions)
	return na
}

// Facts returns the facts in deterministic (key-sorted) order.
func (h History) Facts() []Fact {
	out := make([]Fact, len(h.facts))
	for i, kf := range h.facts {
		out[i] = kf.f
	}
	return out
}

// Len returns the number of facts.
func (h History) Len() int { return len(h.facts) }

// Has reports syntactic membership.
func (h History) Has(f Fact) bool { return h.hasKey(f.Key()) }

func (h History) hasKey(key string) bool {
	_, ok := findKey(h.facts, key)
	return ok
}

// Add returns h ∪ {facts}.
func (h History) Add(facts ...Fact) History {
	n := History{facts: make([]keyed[Fact], len(h.facts), len(h.facts)+len(facts)), solver: h.solver}
	copy(n.facts, h.facts)
	bools := false
	for _, f := range facts {
		_, isBool := f.(BoolFact)
		bools = bools || isBool
		n.facts = insertFact(n.facts, f)
	}
	if bools || n.solver == nil {
		n.solver = &solverCell{tab: h.table()}
	}
	return n
}

// Filter returns the facts satisfying keep.
func (h History) Filter(keep func(Fact) bool) History {
	n := History{facts: make([]keyed[Fact], 0, len(h.facts)), solver: h.solver}
	bools := false
	for _, kf := range h.facts {
		if keep(kf.f) {
			n.facts = append(n.facts, kf)
		} else if _, isBool := kf.f.(BoolFact); isBool {
			bools = true
		}
	}
	if bools || n.solver == nil {
		n.solver = &solverCell{tab: h.table()}
	}
	return n
}

// Solver returns the entailment solver over the boolean facts of h,
// memoized per history value and, within a body analysis, shared by
// every history with the same boolean facts.
func (h History) Solver() *entail.Solver {
	if h.solver != nil && h.solver.s != nil {
		return h.solver.s
	}
	tab := h.table()
	var s *entail.Solver
	if tab == nil {
		s = entail.New(h.boolExprs())
	} else {
		var buf [512]byte
		key := buf[:0]
		for _, kf := range h.facts {
			if _, ok := kf.f.(BoolFact); ok {
				key = append(append(key, kf.key...), 0)
			}
		}
		if s = tab.byFacts[string(key)]; s == nil {
			s = entail.New(h.boolExprs())
			tab.byFacts[string(key)] = s
		}
	}
	if h.solver != nil {
		h.solver.s = s
	}
	return s
}

// boolExprs returns the expressions of h's boolean facts in key order.
func (h History) boolExprs() []expr.Expr {
	var es []expr.Expr
	for _, kf := range h.facts {
		if b, ok := kf.f.(BoolFact); ok {
			es = append(es, b.E)
		}
	}
	return es
}

// String renders the history as {f1, f2, ...}.
func (h History) String() string {
	parts := make([]string, len(h.facts))
	for i, kf := range h.facts {
		parts[i] = fmt.Sprint(kf.f)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// AntSet is an anticipated set A.  Like History it is persistent and
// kept sorted by key, one fact per key.
type AntSet struct {
	facts []keyed[AntFact]
}

// NewAntSet builds an anticipated set.
func NewAntSet(facts ...AntFact) AntSet {
	return AntSet{}.Add(facts...)
}

// insertAnt adds kf to the key-sorted fs in place, replacing a fact with
// the same key.
func insertAnt(fs []keyed[AntFact], kf keyed[AntFact]) []keyed[AntFact] {
	return insertKeyed(fs, kf, func(_, f AntFact) AntFact { return f })
}

// Facts returns the anticipated facts in deterministic order.
func (a AntSet) Facts() []AntFact {
	out := make([]AntFact, len(a.facts))
	for i, kf := range a.facts {
		out[i] = kf.f
	}
	return out
}

// Len returns the number of facts.
func (a AntSet) Len() int { return len(a.facts) }

// Add returns a ∪ {facts}.
func (a AntSet) Add(facts ...AntFact) AntSet {
	n := AntSet{facts: make([]keyed[AntFact], len(a.facts), len(a.facts)+len(facts))}
	copy(n.facts, a.facts)
	for _, f := range facts {
		n.facts = insertAnt(n.facts, keyed[AntFact]{f.Key(), f})
	}
	return n
}

// Filter returns the facts satisfying keep.
func (a AntSet) Filter(keep func(AntFact) bool) AntSet {
	n := AntSet{facts: make([]keyed[AntFact], 0, len(a.facts))}
	for _, kf := range a.facts {
		if keep(kf.f) {
			n.facts = append(n.facts, kf)
		}
	}
	return n
}

// RemoveVar returns A \ x: all facts not mentioning x.
func (a AntSet) RemoveVar(x expr.Var) AntSet {
	return a.Filter(func(f AntFact) bool { return !expr.PathMentions(f.Path, x) })
}

// Subst returns A[x := e], dropping facts whose substitution is
// ill-formed (per [Assign]).
func (a AntSet) Subst(x expr.Var, e expr.Expr) AntSet {
	n := AntSet{facts: make([]keyed[AntFact], 0, len(a.facts))}
	for _, kf := range a.facts {
		if !expr.PathMentions(kf.f.Path, x) {
			n.facts = insertAnt(n.facts, kf)
			continue
		}
		p, ok := expr.SubstPath(kf.f.Path, x, e)
		if !ok {
			continue
		}
		nf := AntFact{Kind: kf.f.Kind, Path: p}
		n.facts = insertAnt(n.facts, keyed[AntFact]{nf.Key(), nf})
	}
	return n
}

// String renders the set.
func (a AntSet) String() string {
	parts := make([]string, len(a.facts))
	for i, kf := range a.facts {
		parts[i] = kf.f.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Ctx is a program-point context H•A.
type Ctx struct {
	H History
	A AntSet
}

// String renders "H • A".
func (c Ctx) String() string { return c.H.String() + " • " + c.A.String() }
