package logic

import "testing"

func TestKeyNormalizesFreshVariables(t *testing.T) {
	// x@1 == $f3 + 1 && $f3 < $in7  vs  the same formula minted under a
	// different fresh counter: x@1 == $f90 + 1 && $f90 < $in4.
	mk := func(f, in string) Formula {
		return MkAnd(
			Cmp{Op: CmpEq, X: Var{Name: "x@1"}, Y: Bin{Op: OpAdd, X: Var{Name: f}, Y: Const{V: 1}}},
			Cmp{Op: CmpLt, X: Var{Name: f}, Y: Var{Name: in}},
		)
	}
	a, b := mk("$f3", "$in7"), mk("$f90", "$in4")
	if a.String() == b.String() {
		t.Fatal("test premise broken: String() should differ")
	}
	if Key(a) != Key(b) {
		t.Errorf("alpha-variant formulas must share a key:\n%s\n%s", Key(a), Key(b))
	}
}

func TestKeyPreservesProgramVariables(t *testing.T) {
	a := Cmp{Op: CmpEq, X: Var{Name: "x"}, Y: Const{V: 0}}
	b := Cmp{Op: CmpEq, X: Var{Name: "y"}, Y: Const{V: 0}}
	if Key(a) == Key(b) {
		t.Error("distinct program variables must keep distinct keys")
	}
	c := Cmp{Op: CmpEq, X: Var{Name: "x@2"}, Y: Const{V: 0}}
	if Key(a) == Key(c) {
		t.Error("SSA versions of a variable must keep distinct keys")
	}
}

func TestKeyRespectsOccurrenceOrder(t *testing.T) {
	// $a < $b and $b < $a both canonize variable-wise to $k0 < $k1, and
	// that is correct: each is a closed existential query and both are
	// satisfiable in the same way. But a formula where the SAME fresh
	// variable appears twice must not collide with one using two.
	same := Cmp{Op: CmpLt, X: Var{Name: "$f1"}, Y: Var{Name: "$f1"}}
	diff := Cmp{Op: CmpLt, X: Var{Name: "$f1"}, Y: Var{Name: "$f2"}}
	if Key(same) == Key(diff) {
		t.Error("repeated fresh variable must not collide with distinct ones")
	}
}

func TestKeyDistinguishesStructure(t *testing.T) {
	and := MkAnd(Cmp{Op: CmpLt, X: Var{Name: "$f1"}, Y: Const{V: 3}}, Cmp{Op: CmpGt, X: Var{Name: "x"}, Y: Const{V: 0}})
	or := MkOr(Cmp{Op: CmpLt, X: Var{Name: "$f1"}, Y: Const{V: 3}}, Cmp{Op: CmpGt, X: Var{Name: "x"}, Y: Const{V: 0}})
	not := MkNot(and)
	keys := map[string]string{"and": Key(and), "or": Key(or), "not": Key(not)}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, ok := seen[k]; ok {
			t.Errorf("%s and %s collide on key %q", name, prev, k)
		}
		seen[k] = name
	}
	if Key(True) != "true" || Key(False) != "false" {
		t.Errorf("constants: got %q / %q", Key(True), Key(False))
	}
}

func TestKeyRootContext(t *testing.T) {
	f := MkAnd(
		Cmp{Op: CmpEq, X: Var{Name: "$in0"}, Y: Var{Name: "x"}},
		Cmp{Op: CmpLt, X: Var{Name: "$in1"}, Y: Const{V: 4}},
	)
	// The canonical renaming quotients out fresh-counter offsets.
	g := MkAnd(
		Cmp{Op: CmpEq, X: Var{Name: "$in7"}, Y: Var{Name: "x"}},
		Cmp{Op: CmpLt, X: Var{Name: "$in9"}, Y: Const{V: 4}},
	)
	if Key(f) != Key(g) {
		t.Fatalf("keys must be renaming-invariant: %q vs %q", Key(f), Key(g))
	}
	// A subformula key must be computed in its own root context, not
	// inherited from the enclosing formula's renaming.
	sub := f.(And).Fs[1]
	if want := Key(Cmp{Op: CmpLt, X: Var{Name: "$k0"}, Y: Const{V: 4}}); Key(sub) != want {
		t.Fatalf("subformula key %q, want root-context %q", Key(sub), want)
	}
}
