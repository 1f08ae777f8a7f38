package instrument

import (
	"testing"

	"bigfoot/internal/analysis"
	"bigfoot/internal/bfj"
	"bigfoot/internal/workloads"
)

// TestCoalescedCheckPositionsSorted pins the position-set ordering the
// detector relies on: firstPos takes Positions[0] of a check item as
// the representative access site, which is the earliest covered access
// only if every instrumentation pass emits position sets sorted by
// (line, col) with no invalid entries.  Single-access checks satisfy
// this trivially; the interesting case is BigFoot's coalescing, where
// one item carries the union of many access positions (bfj.UnionPos).
// Every item must also cite at least one position, so that a race on
// it names its site: checked here and on the 19 evaluation workloads.
func TestCoalescedCheckPositionsSorted(t *testing.T) {
	src := `
class P { field x, y, z; }
setup {
  p = new P;
  l = new P;
  a = newarray 64;
}
thread {
  acquire l;
  t1 = p.x;
  p.x = t1 + 1;
  t2 = p.y;
  p.y = t2 + 1;
  t3 = p.z;
  p.z = t3 + t1;
  for (i = 0; i < 64; i = i + 1) { a[i] = i; }
  release l;
}
thread {
  acquire l;
  s = p.x + p.y + p.z;
  p.x = s;
  release l;
}
`
	sources := map[string]string{"inline": src}
	for _, w := range workloads.All(workloads.DefaultScale()) {
		sources[w.Name] = w.Source
	}
	for prog, src := range sources {
		base := bfj.MustParse(src)
		every, _ := EveryAccess(base)
		redCard, _ := RedCard(base)
		checkPositions(t, prog+" EveryAccess", every)
		checkPositions(t, prog+" RedCard", redCard)
		multi := checkPositions(t, prog+" BigFoot", analysis.New(base, analysis.DefaultOptions()).Instrument())
		if prog == "inline" && multi == 0 {
			t.Error("BigFoot: no multi-position item found — workload no longer exercises coalesced position sets")
		}
	}
}

// checkPositions checks every check item of prog and returns how many
// carry more than one position.
func checkPositions(t *testing.T, name string, prog *bfj.Program) (multi int) {
	t.Helper()
	items := 0
	var walk func(*bfj.Block)
	walk = func(b *bfj.Block) {
		for _, s := range b.Stmts {
			switch x := s.(type) {
			case *bfj.Check:
				for _, it := range x.Items {
					items++
					if len(it.Positions) == 0 {
						t.Errorf("%s: check item %s cites no position", name, bfj.Format(s))
					}
					if len(it.Positions) > 1 {
						multi++
					}
					for i, p := range it.Positions {
						if !p.IsValid() {
							t.Errorf("%s: check item %s carries invalid position %v", name, bfj.Format(s), p)
						}
						if i > 0 && !it.Positions[i-1].Before(p) {
							t.Errorf("%s: check item %s positions not strictly sorted: %s",
								name, bfj.Format(s), bfj.FormatPositions(it.Positions))
						}
					}
				}
			case *bfj.If:
				walk(x.Then)
				walk(x.Else)
			case *bfj.Loop:
				walk(x.Pre)
				walk(x.Post)
			}
		}
	}
	for _, m := range prog.Methods() {
		walk(m.Body)
	}
	for _, th := range prog.Threads {
		walk(th)
	}
	if items == 0 {
		t.Errorf("%s: no check items found — workload no longer exercises instrumentation", name)
	}
	return multi
}
