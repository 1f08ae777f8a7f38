package entail

import (
	"slices"

	"bigfoot/internal/expr"
)

// fm runs Fourier–Motzkin elimination on dense rows.  Column j < n of a
// row holds the coefficient of the j-th of the system's n term keys in
// sorted order, column n the constant; a row r means r·x + r[n] >= 0.
// The storage is reused from run to run, so one solver's refutations
// allocate only while it grows.
type fm struct {
	vars      []expr.TermKey
	arena     []int64
	cur, next [][]int64
	pos, neg  [][]int64
	alive     []int
	slots     []int32
}

// sortedKeys returns the term keys of the forms, sorted and distinct.
func sortedKeys(forms []expr.Linear) []expr.TermKey {
	keys := []expr.TermKey{}
	for _, l := range forms {
		for i := 0; i < l.Len(); i++ {
			keys = append(keys, l.Term(i).Key)
		}
	}
	slices.SortFunc(keys, expr.TermKey.Compare)
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			out = append(out, k)
		}
	}
	return out
}

// mergeKeys returns the sorted distinct union of keys (sorted, distinct)
// and l's term keys, in storage the next call reuses.
func (f *fm) mergeKeys(keys []expr.TermKey, l expr.Linear) []expr.TermKey {
	out := f.vars[:0]
	i := 0
	for t := 0; t < l.Len(); t++ {
		k := l.Term(t).Key
		for i < len(keys) && keys[i].Compare(k) < 0 {
			out = append(out, keys[i])
			i++
		}
		if i < len(keys) && keys[i] == k {
			i++
		}
		out = append(out, k)
	}
	out = append(out, keys[i:]...)
	f.vars = out
	return out
}

// take returns n zeroed words from the arena.  Rows taken in one run
// stay valid through the run: a full arena is replaced, never reused.
func (f *fm) take(n int) []int64 {
	if len(f.arena)+n > cap(f.arena) {
		f.arena = make([]int64, 0, max(2*cap(f.arena), n, 256))
	}
	r := f.arena[len(f.arena) : len(f.arena)+n : len(f.arena)+n]
	f.arena = f.arena[:len(f.arena)+n]
	clear(r)
	return r
}

// unsat reports whether the system {l >= 0 : l in system} is
// unsatisfiable over the rationals, given its sorted distinct term keys.
//
// Elimination picks, among the remaining columns in key order, the first
// one minimizing pos*neg - (pos+neg); each round keeps the rows without
// the column, then combines every positive row with every negative one,
// drops constant combinations (a negative one proves unsat), and keeps
// the first of equal rows.  Past maxFMVars columns or maxFMConstraints
// rows it gives up, reporting false.
func (f *fm) unsat(system []expr.Linear, vars []expr.TermKey) bool {
	if len(vars) > maxFMVars {
		return false
	}
	n := len(vars)
	width := n + 1
	f.arena = f.arena[:0]
	cur := f.cur[:0]
	for _, l := range system {
		row := f.take(width)
		for j, t := 0, 0; t < l.Len(); t++ {
			k := l.Term(t).Key
			for vars[j] != k {
				j++
			}
			row[j] = l.Term(t).Coef
		}
		row[n] = l.Const
		cur = append(cur, row)
	}

	alive := f.alive[:0]
	for j := 0; j < n; j++ {
		alive = append(alive, j)
	}
	next, pos, neg := f.next[:0], f.pos[:0], f.neg[:0]
	defer func() { f.cur, f.next, f.pos, f.neg, f.alive = cur, next, pos, neg, alive }()
	for len(alive) > 0 {
		// Choose the column minimizing the pos*neg product.
		bestIdx, bestCost := -1, 1<<62
		for i, v := range alive {
			np, nn := 0, 0
			for _, r := range cur {
				if c := r[v]; c > 0 {
					np++
				} else if c < 0 {
					nn++
				}
			}
			if cost := np*nn - (np + nn); cost < bestCost {
				bestCost, bestIdx = cost, i
			}
		}
		v := alive[bestIdx]
		alive = append(alive[:bestIdx], alive[bestIdx+1:]...)

		next, pos, neg = next[:0], pos[:0], neg[:0]
		for _, r := range cur {
			switch c := r[v]; {
			case c > 0:
				pos = append(pos, r)
			case c < 0:
				neg = append(neg, r)
			default:
				next = append(next, r)
			}
		}
		if len(pos)*len(neg)+len(next) > maxFMConstraints {
			return false // give up: cannot conclude unsat
		}
		for _, p := range pos {
			for _, q := range neg {
				// b*p + a*q eliminates column v.
				a, b := p[v], -q[v]
				comb := f.take(width)
				for j := range comb {
					comb[j] = b*p[j] + a*q[j]
				}
				if tightenRow(comb) {
					if comb[n] < 0 {
						return true
					}
					continue
				}
				next = append(next, comb)
			}
		}
		// The rows just kept become the current system; the old current
		// slice is reused for the next round's kept rows.
		cur, next = f.dedupRows(next), cur
	}
	for _, r := range cur {
		if r[n] < 0 && isConstRow(r) {
			return true
		}
	}
	return false
}

// tightenRow is tighten on a dense row (constant last), in place.  It
// reports whether every coefficient is zero.
func tightenRow(r []int64) bool {
	n := len(r) - 1
	var g int64
	for _, c := range r[:n] {
		if c != 0 {
			g = gcd(g, abs64(c))
		}
	}
	if g == 0 {
		return true
	}
	if g > 1 {
		for j := range r[:n] {
			r[j] /= g
		}
		r[n] = floorDiv(r[n], g)
	}
	return false
}

func isConstRow(r []int64) bool {
	for _, c := range r[:len(r)-1] {
		if c != 0 {
			return false
		}
	}
	return true
}

// dedupRows keeps the first of each set of equal rows, in order, in
// place.  Kept rows are found through an open-addressed table of their
// indexes plus one, keyed by rowHash and reused from call to call.
func (f *fm) dedupRows(rows [][]int64) [][]int64 {
	size := 1
	for size < 2*len(rows) {
		size <<= 1
	}
	if cap(f.slots) < size {
		f.slots = make([]int32, size)
	}
	slots := f.slots[:size]
	clear(slots)
	mask := uint64(size - 1)
	out := rows[:0]
next:
	for _, r := range rows {
		i := rowHash(r) & mask
		for ; slots[i] != 0; i = (i + 1) & mask {
			if rowsEqual(r, out[slots[i]-1]) {
				continue next
			}
		}
		out = append(out, r)
		slots[i] = int32(len(out))
	}
	return out
}

func rowsEqual(a, b []int64) bool {
	for j := range a {
		if a[j] != b[j] {
			return false
		}
	}
	return true
}

// rowHash is FNV-1a over the row's words.
func rowHash(r []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range r {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
