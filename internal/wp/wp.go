// Package wp implements the weakest-precondition semantics of Figure 3
// of the paper, and the SSA-renamed trace constraint generation of
// §4.2 ("an alternative way to compute the weakest precondition of a
// trace is to first rename the variables so that they are in SSA form,
// so that the weakest precondition is the conjunction of a set of
// constraints, with each constraint directly corresponding to a
// (SSA-renamed) operation").
//
// Memory model: every int variable has a distinct nonzero integer
// address; pointers hold addresses (0 is null); &x is the address
// constant of x; a dereference *p resolves against the may-points-to
// set of p with equality guards. A trace is feasible iff its constraint
// conjunction is satisfiable.
package wp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pathslice/internal/alias"
	"pathslice/internal/cfa"
	"pathslice/internal/lang/ast"
	"pathslice/internal/lang/token"
	"pathslice/internal/logic"
	"pathslice/internal/obs"
)

// Registry metrics for WP computation and trace encoding (see
// docs/OBSERVABILITY.md).
var (
	mWPOps            = obs.Default().Counter("wp_ops_total")
	mTraceEncodes     = obs.Default().Counter("wp_trace_encodes_total")
	mTraceFormulaSize = obs.Default().Histogram("wp_trace_formula_size")
)

// AddrMap assigns each program variable a distinct nonzero address.
type AddrMap struct {
	addr map[string]int64
}

// NewAddrMap builds the address map for all variables of prog, in
// deterministic (sorted) order starting at 1.
func NewAddrMap(prog *cfa.Program) *AddrMap {
	names := make([]string, 0, len(prog.Types))
	for name := range prog.Types {
		names = append(names, name)
	}
	sort.Strings(names)
	m := &AddrMap{addr: make(map[string]int64, len(names))}
	for i, name := range names {
		m.addr[name] = int64(i + 1)
	}
	return m
}

// UnknownVarError reports an address lookup for a variable the
// program does not declare — the API-misuse case that used to panic.
type UnknownVarError struct{ Name string }

// Error describes the missing variable.
func (e *UnknownVarError) Error() string {
	return "wp: no address for variable " + e.Name
}

// Addr returns the address of a variable, or an UnknownVarError when
// the program does not declare it.
func (m *AddrMap) Addr(name string) (int64, error) {
	a, ok := m.addr[name]
	if !ok {
		return 0, &UnknownVarError{Name: name}
	}
	return a, nil
}

// MustAddr is Addr, panicking on an unknown variable. The encoder and
// WP builders use it internally: NewAddrMap covers every variable of
// the program, so a miss means the caller mixed programs — a bug that
// the pipeline's public API boundaries (core, cegar) contain by
// converting the panic to a per-task error.
func (m *AddrMap) MustAddr(name string) int64 {
	a, err := m.Addr(name)
	if err != nil {
		panic(err.Error())
	}
	return a
}

// VarAt returns the variable living at an address, if any.
func (m *AddrMap) VarAt(a int64) (string, bool) {
	for name, addr := range m.addr {
		if addr == a {
			return name, true
		}
	}
	return "", false
}

// ---------------------------------------------------------------------------
// SSA trace encoding

// TraceEncoder incrementally converts a trace (operation sequence) into
// SSA constraints, one operation at a time — the interface the slicer's
// early-stop optimization needs (§4.2).
type TraceEncoder struct {
	prog    *cfa.Program
	alias   *alias.Info
	addrs   *AddrMap
	version map[string]int
	inputs  int
	// nondet records the SSA input names allocated for ast.Nondet
	// occurrences, in allocation (= evaluation) order. The concrete
	// oracle (internal/oracle) projects a solver model onto this list
	// to feed an interpreter replay the same input sequence the
	// constraints were solved under.
	nondet []string
}

// NewTraceEncoder returns an encoder with all variables at version 0
// (their unconstrained initial values).
func NewTraceEncoder(prog *cfa.Program, al *alias.Info, addrs *AddrMap) *TraceEncoder {
	return &TraceEncoder{prog: prog, alias: al, addrs: addrs, version: make(map[string]int)}
}

// ssaName renders the SSA instance of a variable at a version.
func ssaName(name string, version int) string {
	return fmt.Sprintf("%s@%d", name, version)
}

// cur returns the current SSA term for a variable.
func (e *TraceEncoder) cur(name string) logic.Term {
	return logic.Var{Name: ssaName(name, e.version[name])}
}

// next bumps the version of a variable and returns its new SSA term.
func (e *TraceEncoder) next(name string) logic.Term {
	e.version[name]++
	return e.cur(name)
}

// freshInput returns a fresh unconstrained input variable. It is used
// both for nondet occurrences and for internal reification (boolean
// values in term position); only the former correspond to interpreter
// input draws — see freshNondet.
func (e *TraceEncoder) freshInput() logic.Term {
	e.inputs++
	return logic.Var{Name: fmt.Sprintf("$in%d", e.inputs)}
}

// freshNondet allocates a fresh input for an ast.Nondet occurrence and
// records its name for NondetInputs.
func (e *TraceEncoder) freshNondet() logic.Term {
	t := e.freshInput()
	e.nondet = append(e.nondet, t.(logic.Var).Name)
	return t
}

// NondetInputs returns the SSA names of the inputs allocated for
// nondet() occurrences, in the order the trace evaluates them. A
// solver model restricted to these names is the input sequence under
// which the encoded trace was decided.
func (e *TraceEncoder) NondetInputs() []string {
	out := make([]string, len(e.nondet))
	copy(out, e.nondet)
	return out
}

// InitialName returns the SSA name holding the initial value of a
// variable (version 0).
func (e *TraceEncoder) InitialName(name string) string { return ssaName(name, 0) }

// CurrentName returns the SSA name holding the current value.
func (e *TraceEncoder) CurrentName(name string) string {
	return ssaName(name, e.version[name])
}

// EncodeOp returns the constraint contributed by op and advances the
// SSA state. Calls and returns contribute true (identity semantics,
// §4).
func (e *TraceEncoder) EncodeOp(op cfa.Op) logic.Formula {
	switch op.Kind {
	case cfa.OpAssume:
		f, side := e.pred(op.Pred)
		return logic.MkAnd(append(side, f)...)
	case cfa.OpAssign:
		return e.assign(op.LHS, op.RHS)
	default:
		return logic.True
	}
}

// EncodeTrace encodes a whole operation sequence as one conjunction.
func (e *TraceEncoder) EncodeTrace(ops []cfa.Op) logic.Formula {
	sp := obs.StartSpan(obs.PhaseWP)
	fs := make([]logic.Formula, 0, len(ops))
	for _, op := range ops {
		fs = append(fs, e.EncodeOp(op))
	}
	f := logic.MkAnd(fs...)
	mTraceEncodes.Inc()
	mTraceFormulaSize.Observe(int64(logic.Size(f)))
	sp.End()
	return f
}

func (e *TraceEncoder) assign(lhs cfa.Lvalue, rhs ast.Expr) logic.Formula {
	rhsTerm, side := e.term(rhs)
	if !lhs.Deref {
		nv := e.next(lhs.Var)
		return logic.MkAnd(append(side, logic.Cmp{Op: logic.CmpEq, X: nv, Y: rhsTerm})...)
	}
	// Store through *p: guarded updates of every may-target.
	p := e.cur(lhs.Var)
	targets := e.alias.Pts(lhs.Var)
	var fs []logic.Formula
	fs = append(fs, side...)
	if len(targets) == 0 {
		// Dereference of a pointer with empty points-to set: stuck.
		return logic.False
	}
	var valid []logic.Formula
	for _, x := range targets {
		ax := logic.Const{V: e.addrs.MustAddr(x)}
		old := e.cur(x)
		nv := e.next(x)
		eqA := logic.Cmp{Op: logic.CmpEq, X: p, Y: ax}
		fs = append(fs,
			logic.MkOr(logic.MkNot(eqA), logic.Cmp{Op: logic.CmpEq, X: nv, Y: rhsTerm}),
			logic.MkOr(eqA, logic.Cmp{Op: logic.CmpEq, X: nv, Y: old}),
		)
		valid = append(valid, eqA)
	}
	fs = append(fs, logic.MkOr(valid...))
	return logic.MkAnd(fs...)
}

// term converts an expression to a term under the current SSA state,
// returning side constraints from dereferences.
func (e *TraceEncoder) term(expr ast.Expr) (logic.Term, []logic.Formula) {
	switch expr := expr.(type) {
	case *ast.IntLit:
		return logic.Const{V: expr.Value}, nil
	case *ast.Nondet:
		return e.freshNondet(), nil
	case *ast.Ident:
		return e.cur(expr.Name), nil
	case *ast.Unary:
		switch expr.Op {
		case token.MINUS:
			t, side := e.term(expr.X)
			return logic.Neg{X: t}, side
		case token.NOT:
			// !e as a value: 1 if e==0 else 0. Encode with a fresh
			// variable and guards.
			f, side := e.pred(expr)
			r := e.freshInput()
			one := logic.Cmp{Op: logic.CmpEq, X: r, Y: logic.Const{V: 1}}
			zero := logic.Cmp{Op: logic.CmpEq, X: r, Y: logic.Const{V: 0}}
			side = append(side,
				logic.MkOr(logic.MkNot(f), one),
				logic.MkOr(f, zero))
			return r, side
		case token.AMP:
			id := expr.X.(*ast.Ident)
			return logic.Const{V: e.addrs.MustAddr(id.Name)}, nil
		case token.STAR:
			id, ok := expr.X.(*ast.Ident)
			if !ok {
				return e.freshInput(), nil
			}
			return e.deref(id.Name)
		}
	case *ast.Binary:
		switch expr.Op {
		case token.LAND, token.LOR,
			token.EQ, token.NEQ, token.LT, token.LEQ, token.GT, token.GEQ:
			// Boolean-valued expression in term position: 0/1 encode.
			f, side := e.pred(expr)
			r := e.freshInput()
			side = append(side,
				logic.MkOr(logic.MkNot(f), logic.Cmp{Op: logic.CmpEq, X: r, Y: logic.Const{V: 1}}),
				logic.MkOr(f, logic.Cmp{Op: logic.CmpEq, X: r, Y: logic.Const{V: 0}}))
			return r, side
		}
		x, sx := e.term(expr.X)
		y, sy := e.term(expr.Y)
		side := append(sx, sy...)
		var op logic.BinOp
		switch expr.Op {
		case token.PLUS:
			op = logic.OpAdd
		case token.MINUS:
			op = logic.OpSub
		case token.STAR:
			op = logic.OpMul
		case token.SLASH:
			op = logic.OpDiv
		case token.PERCENT:
			op = logic.OpMod
		default:
			return e.freshInput(), side
		}
		return logic.Bin{Op: op, X: x, Y: y}, side
	}
	return e.freshInput(), nil
}

// deref reads through pointer p: a fresh variable constrained by
// equality guards against every may-target.
func (e *TraceEncoder) deref(p string) (logic.Term, []logic.Formula) {
	targets := e.alias.Pts(p)
	if len(targets) == 0 {
		// Reading through a dangling pointer: infeasible.
		return e.freshInput(), []logic.Formula{logic.False}
	}
	pv := e.cur(p)
	if len(targets) == 1 {
		x := targets[0]
		ax := logic.Const{V: e.addrs.MustAddr(x)}
		return e.cur(x), []logic.Formula{logic.Cmp{Op: logic.CmpEq, X: pv, Y: ax}}
	}
	r := e.freshInput()
	var side []logic.Formula
	var valid []logic.Formula
	for _, x := range targets {
		ax := logic.Const{V: e.addrs.MustAddr(x)}
		eqA := logic.Cmp{Op: logic.CmpEq, X: pv, Y: ax}
		side = append(side, logic.MkOr(logic.MkNot(eqA), logic.Cmp{Op: logic.CmpEq, X: r, Y: e.cur(x)}))
		valid = append(valid, eqA)
	}
	side = append(side, logic.MkOr(valid...))
	return r, side
}

// pred converts a predicate expression to a formula under the current
// SSA state, returning dereference side constraints.
func (e *TraceEncoder) pred(expr ast.Expr) (logic.Formula, []logic.Formula) {
	switch expr := expr.(type) {
	case *ast.IntLit:
		return logic.Bool{V: expr.Value != 0}, nil
	case *ast.Unary:
		if expr.Op == token.NOT {
			f, side := e.pred(expr.X)
			return logic.MkNot(f), side
		}
	case *ast.Binary:
		switch expr.Op {
		case token.LAND:
			x, sx := e.pred(expr.X)
			y, sy := e.pred(expr.Y)
			return logic.MkAnd(x, y), append(sx, sy...)
		case token.LOR:
			x, sx := e.pred(expr.X)
			y, sy := e.pred(expr.Y)
			return logic.MkOr(x, y), append(sx, sy...)
		case token.EQ, token.NEQ, token.LT, token.LEQ, token.GT, token.GEQ:
			x, sx := e.term(expr.X)
			y, sy := e.term(expr.Y)
			var op logic.CmpOp
			switch expr.Op {
			case token.EQ:
				op = logic.CmpEq
			case token.NEQ:
				op = logic.CmpNe
			case token.LT:
				op = logic.CmpLt
			case token.LEQ:
				op = logic.CmpLe
			case token.GT:
				op = logic.CmpGt
			case token.GEQ:
				op = logic.CmpGe
			}
			return logic.Cmp{Op: op, X: x, Y: y}, append(sx, sy...)
		}
	}
	// Any other int expression used as a predicate: e != 0.
	t, side := e.term(expr)
	return logic.Cmp{Op: logic.CmpNe, X: t, Y: logic.Const{V: 0}}, side
}

// DecodeInitialState projects a solver model onto the initial (version
// 0) values of program variables, defaulting to 0: the witness state s
// with s ∈ WP.true.τ.
func (e *TraceEncoder) DecodeInitialState(model map[string]int64, prog *cfa.Program) map[string]int64 {
	out := make(map[string]int64)
	for name := range prog.Types {
		out[name] = model[ssaName(name, 0)]
	}
	return out
}

// ---------------------------------------------------------------------------
// Classic backward WP (Fig. 3), used by the CEGAR abstraction queries.

// WPOp computes WP.φ.op following Figure 3: φ[e/l] for assignments,
// φ ∧ p for assumes, φ for calls and returns. Dereferences and nondet
// right-hand sides are handled by havocking (fresh variables), which
// over-approximates the precondition for the satisfiability queries the
// model checker performs. It compiles op and applies it once; a caller
// that takes the WP of one operation many times keeps the CompiledOp.
func WPOp(phi logic.Formula, op cfa.Op, al *alias.Info, addrs *AddrMap, freshID *int) logic.Formula {
	return CompileOp(op, al, addrs).WP(phi, freshID)
}

// CompiledOp is an operation converted once for WPOp: its predicate or
// right-hand side over plain variable names, their dereference and
// reification side constraints, and the variables an assignment
// writes. The conversion ran with the fresh counter at 0, so its fresh
// variables are $f1…$fN; WP renames them to the names a conversion at
// the caller's counter would have minted.
type CompiledOp struct {
	kind  cfa.OpKind
	pred  logic.Formula   // OpAssume
	rhs   logic.Term      // OpAssign
	side  []logic.Formula // side constraints of pred or rhs
	fresh int             // N
	// target is the one variable an assignment writes; havoc lists a
	// store's may-targets when there is not exactly one.
	target string
	havoc  []string
}

// CompileOp converts op for repeated WP applications. Like WPOp it
// panics on a variable the address map lacks (see MustAddr).
func CompileOp(op cfa.Op, al *alias.Info, addrs *AddrMap) *CompiledOp {
	c := &CompiledOp{kind: op.Kind}
	switch op.Kind {
	case cfa.OpAssume:
		c.pred, c.side = predNoSSA(op.Pred, al, addrs, &c.fresh)
	case cfa.OpAssign:
		c.rhs, c.side = termNoSSA(op.RHS, al, addrs, &c.fresh)
		c.target = op.LHS.Var
		if op.LHS.Deref {
			// Store through a pointer. With a singleton points-to set
			// the target is definite: substitute exactly like a direct
			// assignment. Otherwise havoc all may-targets (sound for the
			// reachability overapproximation the checker needs).
			c.target = ""
			if targets := al.Pts(op.LHS.Var); len(targets) == 1 {
				c.target = targets[0]
			} else {
				c.havoc = targets
			}
		}
	}
	return c
}

// WP returns WP.φ.op exactly as a conversion of op at *freshID would
// build it, and advances *freshID past the fresh variables it minted:
// the op's $f names, then one $h name per may-target a store havocs.
func (c *CompiledOp) WP(phi logic.Formula, freshID *int) logic.Formula {
	mWPOps.Inc()
	if c.kind != cfa.OpAssume && c.kind != cfa.OpAssign {
		return phi
	}
	pred, rhs, side := c.pred, c.rhs, c.side
	if base := *freshID; c.fresh > 0 && base != 0 {
		ren := make(map[string]logic.Term, c.fresh)
		for j := 1; j <= c.fresh; j++ {
			ren[freshName(j)] = logic.Var{Name: freshName(base + j)}
		}
		side = make([]logic.Formula, len(c.side))
		for i, s := range c.side {
			side[i] = logic.Subst(s, ren)
		}
		if c.kind == cfa.OpAssume {
			pred = logic.Subst(pred, ren)
		} else {
			rhs = logic.SubstTerm(rhs, ren)
		}
	}
	*freshID += c.fresh
	if c.kind == cfa.OpAssume {
		return conj(side, pred, phi)
	}
	if c.target != "" {
		return conj(side, logic.Subst(phi, map[string]logic.Term{c.target: rhs}))
	}
	sub := make(map[string]logic.Term, len(c.havoc))
	for _, x := range c.havoc {
		*freshID++
		sub[x] = logic.Var{Name: fmt.Sprintf("$h%d", *freshID)}
	}
	return conj(side, logic.Subst(phi, sub))
}

// conj is logic.MkAnd(side..., rest...), leaving side's array alone.
func conj(side []logic.Formula, rest ...logic.Formula) logic.Formula {
	if len(side) == 0 {
		return logic.MkAnd(rest...)
	}
	fs := make([]logic.Formula, 0, len(side)+len(rest))
	return logic.MkAnd(append(append(fs, side...), rest...)...)
}

// freshName is the name of the n-th fresh variable of a conversion.
func freshName(n int) string { return "$f" + strconv.Itoa(n) }

// WPTrace folds WPOp backward over a trace: WP.φ.(τ';op) =
// WP.(WP.φ.op).τ'.
func WPTrace(phi logic.Formula, ops []cfa.Op, al *alias.Info, addrs *AddrMap) logic.Formula {
	fresh := 0
	for i := len(ops) - 1; i >= 0; i-- {
		phi = WPOp(phi, ops[i], al, addrs, &fresh)
	}
	return phi
}

// predNoSSA converts a predicate over plain (non-SSA) variable names.
// Fresh variables ($in from nondet or boolean reification) are renamed
// through freshID so distinct operations never share them.
func predNoSSA(expr ast.Expr, al *alias.Info, addrs *AddrMap, freshID *int) (logic.Formula, []logic.Formula) {
	enc := &TraceEncoder{alias: al, addrs: addrs, version: map[string]int{}}
	f, side := enc.pred(expr)
	sub := stripSubst(append([]logic.Formula{f}, side...), freshID)
	out := make([]logic.Formula, len(side))
	for i, s := range side {
		out[i] = logic.Subst(s, sub)
	}
	return logic.Subst(f, sub), out
}

// termNoSSA converts an expression over plain variable names.
func termNoSSA(expr ast.Expr, al *alias.Info, addrs *AddrMap, freshID *int) (logic.Term, []logic.Formula) {
	enc := &TraceEncoder{alias: al, addrs: addrs, version: map[string]int{}}
	t, side := enc.term(expr)
	vars := make(map[string]struct{})
	logic.TermVars(t, vars)
	fs := make([]logic.Formula, 0, len(side)+1)
	fs = append(fs, side...)
	sub := stripSubstNames(vars, freshID)
	addSubstFromFormulas(fs, sub, freshID)
	out := make([]logic.Formula, len(side))
	for i, s := range side {
		out[i] = logic.Subst(s, sub)
	}
	return logic.SubstTerm(t, sub), out
}

// stripSubst builds a substitution that removes "@0" SSA suffixes and
// uniquifies fresh "$in" variables across calls.
func stripSubst(fs []logic.Formula, freshID *int) map[string]logic.Term {
	sub := make(map[string]logic.Term)
	addSubstFromFormulas(fs, sub, freshID)
	return sub
}

func addSubstFromFormulas(fs []logic.Formula, sub map[string]logic.Term, freshID *int) {
	names := make(map[string]struct{})
	for _, f := range fs {
		for _, v := range logic.Vars(f) {
			names[v] = struct{}{}
		}
	}
	// Sorted iteration: freshID is consumed per name, so the order
	// decides which $f number each variable gets. Keeping it
	// deterministic keeps the emitted formulas — and hence the solver
	// cache keys — identical across runs.
	for _, name := range sortedNames(names) {
		addStrip(name, sub, freshID)
	}
}

func stripSubstNames(names map[string]struct{}, freshID *int) map[string]logic.Term {
	sub := make(map[string]logic.Term)
	for _, name := range sortedNames(names) {
		addStrip(name, sub, freshID)
	}
	return sub
}

func sortedNames(names map[string]struct{}) []string {
	out := make([]string, 0, len(names))
	for name := range names {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func addStrip(name string, sub map[string]logic.Term, freshID *int) {
	if _, done := sub[name]; done {
		return
	}
	if base, ok := strings.CutSuffix(name, "@0"); ok {
		sub[name] = logic.Var{Name: base}
		return
	}
	if strings.HasPrefix(name, "$in") {
		*freshID++
		sub[name] = logic.Var{Name: freshName(*freshID)}
	}
}
