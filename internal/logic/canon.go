package logic

import (
	"strconv"
	"strings"
)

// Key returns a canonical cache key for f: the structural serialization
// of the formula with every solver-internal variable (the "$"-prefixed
// names the WP machinery and trace encoder mint from fresh counters —
// $in nondet inputs, $f/$h havocs, $u nonlinear abstractions) renamed
// to its first-occurrence index. Two formulas that differ only in the
// value of the fresh-variable counter they were generated under map to
// the same key, and a key collision implies the formulas are identical
// up to a bijective renaming of those variables — which preserves
// satisfiability, since a solver query is a closed formula whose
// variables are all implicitly existential. Program variables (and
// their "@k" SSA versions) are never renamed, so keys stay readable and
// distinct program facts stay distinct.
// Interned formulas (see Intern) cache their Key on the shared
// hash-consing record, so repeated cache lookups of the same node skip
// re-serialization. Caching is root-only: a subformula's canonical
// renaming depends on the first-occurrence order of fresh variables in
// the enclosing formula, so only the key computed for a node *as a
// root* is context-free.
func Key(f Formula) string {
	m := formulaMeta(f)
	if m != nil {
		if p := m.key.Load(); p != nil {
			return *p
		}
	}
	c := canonizer{names: make(map[string]string)}
	var b strings.Builder
	b.Grow(64) // one allocation up to 64 bytes, not a doubling series from 8
	c.formula(&b, f)
	k := b.String()
	if m != nil {
		m.key.Store(&k)
	}
	return k
}

type canonizer struct {
	names map[string]string // fresh-variable name → canonical name
}

func (c *canonizer) name(v string) string {
	if !strings.HasPrefix(v, "$") {
		return v
	}
	r, ok := c.names[v]
	if !ok {
		r = "$k" + strconv.Itoa(len(c.names))
		c.names[v] = r
	}
	return r
}

func (c *canonizer) term(b *strings.Builder, t Term) {
	switch t := t.(type) {
	case Const:
		b.WriteString(strconv.FormatInt(t.V, 10))
	case Var:
		b.WriteString(c.name(t.Name))
	case Bin:
		b.WriteByte('(')
		c.term(b, t.X)
		b.WriteByte(' ')
		b.WriteString(t.Op.String())
		b.WriteByte(' ')
		c.term(b, t.Y)
		b.WriteByte(')')
	case Neg:
		b.WriteString("(-")
		c.term(b, t.X)
		b.WriteByte(')')
	}
}

func (c *canonizer) formula(b *strings.Builder, f Formula) {
	switch f := f.(type) {
	case Bool:
		b.WriteString(f.String())
	case Cmp:
		b.WriteByte('(')
		c.term(b, f.X)
		b.WriteByte(' ')
		b.WriteString(f.Op.String())
		b.WriteByte(' ')
		c.term(b, f.Y)
		b.WriteByte(')')
	case Not:
		b.WriteByte('!')
		c.formula(b, f.F)
	case And:
		c.join(b, f.Fs, " && ", "true")
	case Or:
		c.join(b, f.Fs, " || ", "false")
	}
}

func (c *canonizer) join(b *strings.Builder, fs []Formula, sep, empty string) {
	if len(fs) == 0 {
		b.WriteString(empty)
		return
	}
	b.WriteByte('(')
	for i, f := range fs {
		if i > 0 {
			b.WriteString(sep)
		}
		c.formula(b, f)
	}
	b.WriteByte(')')
}
