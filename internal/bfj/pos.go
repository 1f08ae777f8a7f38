package bfj

import (
	"fmt"
	"sort"
)

// Pos is a source position in BFJ source text (1-based line and column).
// The zero Pos means "position unknown" — programmatically constructed
// ASTs need not carry positions, and everything downstream treats an
// invalid Pos as absent.
type Pos struct {
	Line int
	Col  int
}

// IsValid reports whether the position refers to actual source text.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String renders "line:col", or "?" for an unknown position.
func (p Pos) String() string {
	if !p.IsValid() {
		return "?"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Pos32 is a Pos packed into 32-bit line and column, for metadata that
// keeps a position per shadow location or pending footprint entry.  Its
// zero value is the unknown position.
type Pos32 struct {
	line, col int32
}

// Pack packs p.  A line or column that does not fit in int32 packs as
// the unknown position.
func (p Pos) Pack() Pos32 {
	if int(int32(p.Line)) != p.Line || int(int32(p.Col)) != p.Col {
		return Pos32{}
	}
	return Pos32{int32(p.Line), int32(p.Col)}
}

// Unpack returns the packed position.
func (p Pos32) Unpack() Pos { return Pos{Line: int(p.line), Col: int(p.col)} }

// Before orders positions by (line, col).
func (p Pos) Before(q Pos) bool {
	if p.Line != q.Line {
		return p.Line < q.Line
	}
	return p.Col < q.Col
}

// UnionPos returns the sorted, deduplicated union of the given position
// sets, dropping invalid (zero) positions.  Coalesced checks carry the
// union of their constituents' positions, so the result must be
// deterministic regardless of merge order.
func UnionPos(sets ...[]Pos) []Pos {
	var out []Pos
	for _, s := range sets {
		for _, p := range s {
			if p.IsValid() {
				out = append(out, p)
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// FormatPositions renders a position set as "l1:c1 l2:c2 ...", or "" for
// an empty set.
func FormatPositions(ps []Pos) string {
	s := ""
	for i, p := range ps {
		if i > 0 {
			s += " "
		}
		s += p.String()
	}
	return s
}
