package proxy

import (
	"testing"

	"bigfoot/internal/analysis"
	"bigfoot/internal/bfj"
)

// analyzeBF instruments with BigFoot placement and runs the proxy pass.
func analyzeBF(t *testing.T, src string) *Table {
	t.Helper()
	prog := bfj.MustParse(src)
	inst := analysis.New(prog, analysis.Options{}).Instrument()
	return Analyze(inst)
}

func TestAlwaysTogetherFieldsCompress(t *testing.T) {
	// x, y, z are always accessed (and hence checked) together.
	tab := analyzeBF(t, `
class Vec {
  field x, y, z;
  method bump() {
    a = this.x;
    this.x = a + 1;
    b = this.y;
    this.y = b + 1;
    c = this.z;
    this.z = c + 1;
  }
}
setup { v = new Vec; }
thread { v.bump(); }
`)
	if tab.Rep("x") != tab.Rep("y") || tab.Rep("y") != tab.Rep("z") {
		t.Errorf("x/y/z should share a shadow: %q %q %q", tab.Rep("x"), tab.Rep("y"), tab.Rep("z"))
	}
	if tab.GroupCount != 1 || tab.FieldsCompressed != 2 {
		t.Errorf("groups=%d compressed=%d", tab.GroupCount, tab.FieldsCompressed)
	}
	groups := tab.GroupsOf([]string{"x", "y", "z"})
	if len(groups) != 1 {
		t.Errorf("coalesced check should touch one shadow, got %v", groups)
	}
}

func TestSometimesSeparateFieldsDoNotCompress(t *testing.T) {
	// y is sometimes checked without x, so they must not share a shadow
	// (merging would lose address precision).
	tab := analyzeBF(t, `
class P {
  field x, y;
  method both() {
    this.x = 1;
    this.y = 2;
  }
  method onlyY() {
    this.y = 3;
  }
}
setup { p = new P; }
thread { p.both(); }
thread { p.onlyY(); }
`)
	if tab.Rep("x") == tab.Rep("y") {
		t.Error("asymmetrically-checked fields must not compress")
	}
	if gs := tab.GroupsOf([]string{"x", "y"}); len(gs) != 2 {
		t.Errorf("groups of x,y = %v", gs)
	}
}

func TestNilTableIsIdentity(t *testing.T) {
	var tab *Table
	if tab.Rep("f") != "f" {
		t.Error("nil table should be identity")
	}
	fs := []string{"a", "b"}
	if got := tab.GroupsOf(fs); len(got) != 2 {
		t.Errorf("nil GroupsOf = %v", got)
	}
}

func TestUncheckedFieldsMapToThemselves(t *testing.T) {
	tab := analyzeBF(t, `
class C { field used, unused; }
setup { c = new C; }
thread { c.used = 1; }
`)
	if tab.Rep("unused") != "unused" {
		t.Errorf("unused field rep = %q", tab.Rep("unused"))
	}
}

func TestGroupsOfFastPathNoAlloc(t *testing.T) {
	tab := analyzeBF(t, `
class C { field a, b; }
setup { c = new C; }
thread { c.a = 1; }
thread { c.b = 2; }
`)
	// a and b are checked separately: identity fast path returns the
	// input slice itself.
	in := []string{"a", "b"}
	out := tab.GroupsOf(in)
	if &out[0] != &in[0] {
		t.Error("identity case should return the input slice")
	}
}
