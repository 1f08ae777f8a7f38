package bfj

import (
	"testing"

	"bigfoot/internal/expr"
)

func TestDef(t *testing.T) {
	empty := &Block{}
	cases := []struct {
		s    Stmt
		want expr.Var // "" for a statement that assigns nothing
	}{
		{&Assign{X: "x", E: expr.I(1)}, "x"},
		{&Rename{X: "x'", Y: "x"}, "x'"},
		{&New{X: "o", Class: "C"}, "o"},
		{&NewArray{X: "a", Size: expr.I(4)}, "a"},
		{&FieldRead{X: "v", Y: "o", F: "f"}, "v"},
		{&ArrayRead{X: "v", Y: "a", Z: expr.V("i")}, "v"},
		{&Fork{X: "h", Y: "o", M: "run"}, "h"},
		{&Call{X: "r", Y: "o", M: "get"}, "r"},
		{&Call{Y: "o", M: "put", Args: []expr.Expr{expr.V("v")}}, ""},
		{&FieldWrite{Y: "o", F: "f", E: expr.V("v")}, ""},
		{&ArrayWrite{Y: "a", Z: expr.V("i"), E: expr.V("v")}, ""},
		{&Acquire{L: "l"}, ""},
		{&Release{L: "l"}, ""},
		{&Join{X: "h"}, ""},
		{&If{Cond: expr.B(true), Then: &Block{Stmts: []Stmt{&Assign{X: "x", E: expr.I(1)}}}, Else: empty}, ""},
		{&Loop{Pre: &Block{Stmts: []Stmt{&Assign{X: "x", E: expr.I(1)}}}, Cond: expr.B(true), Post: empty}, ""},
		{&Check{Items: []CheckItem{{Kind: Read, Path: expr.NewFieldPath("o", "f")}}}, ""},
		{&Print{Args: []expr.Expr{expr.V("x")}}, ""},
		{&Assert{Cond: expr.B(true)}, ""},
	}
	for _, c := range cases {
		v, ok := Def(c.s)
		if v != c.want || ok != (c.want != "") {
			t.Errorf("Def(%s) = %q, %v; want %q, %v", Format(c.s), v, ok, c.want, c.want != "")
		}
	}
}
