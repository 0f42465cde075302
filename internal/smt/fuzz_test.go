package smt

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"testing"

	"pathslice/internal/logic"
)

// fuzzFormula decodes arbitrary bytes into a well-formed logic.Formula
// — a structured-fuzzing front end for the linearizer, which only ever
// sees formulas, not bytes. The grammar deliberately produces the
// shapes linearize.go special-cases: nonlinear products and divisions
// (abstracted to fresh variables), negations, constants on either
// side, and boolean structure for the case-splitter.
type fuzzDecoder struct {
	data []byte
	pos  int
	wide bool // some constant lies outside int8 range
}

func (d *fuzzDecoder) next() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

var fuzzVars = []string{"x", "y", "z", "w"}

// constant decodes an int8 constant, except that the byte 0x80 is a
// marker: the next byte picks one of numEdges or -128, so some
// constants sit on the int64 word boundaries and the big.Rat fallback
// of the linearizer and the simplex runs end to end, while every int8
// value stays reachable.
func (d *fuzzDecoder) constant() logic.Const {
	b := d.next()
	if b != 0x80 {
		return logic.Const{V: int64(int8(b))}
	}
	i := int(d.next()) % (len(numEdges) + 1)
	if i == len(numEdges) {
		return logic.Const{V: math.MinInt8}
	}
	v := numEdges[i].Int64()
	d.wide = d.wide || v < math.MinInt8 || v > math.MaxInt8
	return logic.Const{V: v}
}

func (d *fuzzDecoder) term(depth int) logic.Term {
	b := d.next()
	if depth <= 0 {
		if b%2 == 0 {
			return d.constant()
		}
		return logic.Var{Name: fuzzVars[int(d.next())%len(fuzzVars)]}
	}
	switch b % 8 {
	case 0:
		return d.constant()
	case 1:
		return logic.Var{Name: fuzzVars[int(d.next())%len(fuzzVars)]}
	case 2:
		return logic.Bin{Op: logic.OpAdd, X: d.term(depth - 1), Y: d.term(depth - 1)}
	case 3:
		return logic.Bin{Op: logic.OpSub, X: d.term(depth - 1), Y: d.term(depth - 1)}
	case 4:
		return logic.Bin{Op: logic.OpMul, X: d.term(depth - 1), Y: d.term(depth - 1)}
	case 5:
		return logic.Bin{Op: logic.OpDiv, X: d.term(depth - 1), Y: d.term(depth - 1)}
	case 6:
		return logic.Bin{Op: logic.OpMod, X: d.term(depth - 1), Y: d.term(depth - 1)}
	default:
		return logic.Neg{X: d.term(depth - 1)}
	}
}

func (d *fuzzDecoder) formula(depth int) logic.Formula {
	b := d.next()
	if depth <= 0 || b%5 == 0 {
		return logic.Cmp{Op: logic.CmpOp(d.next() % 6), X: d.term(2), Y: d.term(2)}
	}
	switch b % 5 {
	case 1:
		return logic.MkNot(d.formula(depth - 1))
	case 2:
		return logic.MkAnd(d.formula(depth-1), d.formula(depth-1))
	case 3:
		return logic.MkOr(d.formula(depth-1), d.formula(depth-1))
	default:
		return logic.Bool{V: b%2 == 0}
	}
}

// FuzzLinearize drives the linearizer (and the solver stack behind it)
// with decoded formulas. The contract under fuzzing
// (docs/ROBUSTNESS.md): no panic for any formula, the status is one of
// the three defined values, a Sat answer comes with a model that
// actually satisfies the original (pre-abstraction) formula, and no
// small assignment satisfies a formula answered Unsat.
func FuzzLinearize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte("\x02\x04\x01\x00\x03\x05\x01\x01\x07"))
	f.Add([]byte{2, 2, 4, 1, 0, 1, 1, 0, 3, 0, 5, 1, 2})
	f.Add([]byte{1, 0, 1, 5, 1, 0, 6, 1, 1, 0, 7})
	// Word-boundary constants: MaxInt64·x + MaxInt64·y ≤ -MaxInt64 and
	// MinInt64 - x < 2^62·2^62, whose products only the big.Rat form
	// holds.
	f.Add([]byte{0, 3, 2, 4, 0, 0x80, 10, 1, 0, 4, 0, 0x80, 10, 1, 1, 0, 0x80, 11})
	f.Add([]byte{0, 2, 3, 0, 0x80, 1, 1, 0, 4, 0, 0x80, 8, 0, 0x80, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzDecoder{data: data}
		formula := d.formula(3)
		lim := Limits{MaxLeaves: 200, MaxBBDepth: 12}
		r := SolveWithLimits(formula, lim)
		// Cross-check the incremental solver: asserting the same formula
		// into a fresh Solver must agree on every decided verdict, and
		// must never answer Unknown where from-scratch solving decides
		// (the fallback guarantees it is at least as strong).
		inc := NewSolverWithLimits(lim)
		inc.Assert(formula)
		ri := inc.Check()
		if r.Status != StatusUnknown {
			if ri.Status == StatusUnknown {
				t.Fatalf("incremental Unknown where scratch decided %v for %s", r.Status, formula)
			}
			if ri.Status != r.Status {
				t.Fatalf("incremental %v vs scratch %v for %s", ri.Status, r.Status, formula)
			}
		}
		switch r.Status {
		case StatusSat:
			// The model may be partial: variables not constrained by
			// the satisfied case-split leaf are free, so any
			// completion works. (When abstraction was used, model
			// validation already bound every variable.)
			model := make(map[string]int64, len(r.Model))
			for k, v := range r.Model {
				model[k] = v
			}
			for _, name := range logic.Vars(formula) {
				if _, ok := model[name]; !ok {
					model[name] = 0
				}
			}
			ok, err := logic.Eval(formula, model)
			if err == nil && !ok && d.wide {
				// logic.Eval wraps on int64 overflow, while the solver
				// decides over the integers. Only on a formula with a
				// word-boundary constant is a model Eval rejects judged
				// again, by exact evaluation: it passes when that
				// evaluation, which left int64 range somewhere, holds.
				// Formulas with int8 constants alone keep the strict
				// check.
				ev := exactEval{env: model}
				var exact bool
				if exact, err = ev.formula(formula); err == nil {
					ok = exact && ev.overflow
				}
			}
			if err != nil {
				// Evaluation is strict: a division by zero anywhere —
				// even in a disjunct the model does not rely on —
				// aborts it, while the solver models division as an
				// abstracted total function. Only that mismatch is
				// tolerated.
				var dz logic.ErrDivByZero
				if errors.As(err, &dz) {
					return
				}
				t.Fatalf("Sat model does not evaluate on %s: %v (model %v)", formula, err, model)
			}
			if !ok {
				t.Fatalf("Sat model falsifies %s (model %v)", formula, model)
			}
		case StatusUnsat, StatusUnknown:
			// Unknown is always a legal answer under limits.
		default:
			t.Fatalf("undefined status %v for %s", r.Status, formula)
		}
		if (r.Status == StatusUnsat || ri.Status == StatusUnsat) && !d.wide {
			if env := smallModel(t, formula); env != nil {
				t.Fatalf("Unsat, but %v satisfies %s", env, formula)
			}
		}
	})
}

// smallModel returns an assignment of every fuzz variable over
// {-1, 0, 1} under which logic.Eval satisfies f, or nil. With int8
// constants alone, terms of such values stay far inside int64, where
// Eval's wrapping and the solver's integers agree, so a model found
// here refutes an Unsat answer. Assignments that divide by zero are
// skipped: Eval rejects them, while the solver's division is total.
func smallModel(t *testing.T, f logic.Formula) map[string]int64 {
	env := make(map[string]int64, len(fuzzVars))
	var try func(k int) bool
	try = func(k int) bool {
		if k == len(fuzzVars) {
			ok, err := logic.Eval(f, env)
			var dz logic.ErrDivByZero
			if err != nil && !errors.As(err, &dz) {
				t.Fatalf("Eval %s at %v: %v", f, env, err)
			}
			return err == nil && ok
		}
		for v := int64(-1); v <= 1; v++ {
			env[fuzzVars[k]] = v
			if try(k + 1) {
				return true
			}
		}
		return false
	}
	if try(0) {
		return env
	}
	return nil
}

// exactEval evaluates formulas over the integers with math/big, with
// logic.Eval's C semantics for / and % and its strict error handling;
// overflow records whether a value left int64 range.
type exactEval struct {
	env      map[string]int64
	overflow bool
}

func (e *exactEval) term(t logic.Term) (*big.Int, error) {
	var r *big.Int
	switch t := t.(type) {
	case logic.Const:
		return big.NewInt(t.V), nil
	case logic.Var:
		v, ok := e.env[t.Name]
		if !ok {
			return nil, logic.ErrUnbound{Name: t.Name}
		}
		return big.NewInt(v), nil
	case logic.Neg:
		x, err := e.term(t.X)
		if err != nil {
			return nil, err
		}
		r = new(big.Int).Neg(x)
	case logic.Bin:
		x, err := e.term(t.X)
		if err != nil {
			return nil, err
		}
		y, err := e.term(t.Y)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case logic.OpAdd:
			r = new(big.Int).Add(x, y)
		case logic.OpSub:
			r = new(big.Int).Sub(x, y)
		case logic.OpMul:
			r = new(big.Int).Mul(x, y)
		default: // OpDiv, OpMod: truncated, as in C
			if y.Sign() == 0 {
				return nil, logic.ErrDivByZero{T: t}
			}
			q, m := new(big.Int).QuoRem(x, y, new(big.Int))
			r = q
			if t.Op == logic.OpMod {
				r = m
			}
		}
	default:
		return nil, fmt.Errorf("unknown term %T", t)
	}
	if !r.IsInt64() {
		e.overflow = true
	}
	return r, nil
}

func (e *exactEval) formula(f logic.Formula) (bool, error) {
	switch f := f.(type) {
	case logic.Bool:
		return f.V, nil
	case logic.Cmp:
		x, err := e.term(f.X)
		if err != nil {
			return false, err
		}
		y, err := e.term(f.Y)
		if err != nil {
			return false, err
		}
		c := x.Cmp(y)
		switch f.Op {
		case logic.CmpEq:
			return c == 0, nil
		case logic.CmpNe:
			return c != 0, nil
		case logic.CmpLt:
			return c < 0, nil
		case logic.CmpLe:
			return c <= 0, nil
		case logic.CmpGt:
			return c > 0, nil
		case logic.CmpGe:
			return c >= 0, nil
		}
	case logic.Not:
		v, err := e.formula(f.F)
		return !v, err
	case logic.And:
		for _, g := range f.Fs {
			if v, err := e.formula(g); err != nil || !v {
				return false, err
			}
		}
		return true, nil
	case logic.Or:
		for _, g := range f.Fs {
			if v, err := e.formula(g); err != nil || v {
				return v, err
			}
		}
		return false, nil
	}
	return false, fmt.Errorf("unknown formula %T", f)
}
