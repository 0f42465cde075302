package logic

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// refKey is the strings.Builder serializer Key replaced, kept as the
// reference the buffer-based Keyer must match byte for byte: snapshots
// persist keys, so a changed key would miss every restored entry.
func refKey(f Formula) string {
	c := refCanonizer{names: make(map[string]string)}
	var b strings.Builder
	c.formula(&b, f)
	return b.String()
}

type refCanonizer struct {
	names map[string]string // fresh-variable name → canonical name
}

func (c *refCanonizer) name(v string) string {
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

func (c *refCanonizer) term(b *strings.Builder, t Term) {
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

func (c *refCanonizer) formula(b *strings.Builder, f Formula) {
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

func (c *refCanonizer) join(b *strings.Builder, fs []Formula, sep, empty string) {
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

// refMkAnd is the one-pass MkAnd the allocation-free one replaced.
func refMkAnd(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch f := f.(type) {
		case Bool:
			if !f.V {
				return False
			}
		case And:
			out = append(out, f.Fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return True
	case 1:
		return out[0]
	}
	return And{Fs: out}
}

// fuzzNames mixes program variables, SSA versions and the "$" names
// the WP machinery mints; formulaGen adds "$in<n>" names from the
// input, enough to pass Keyer's linear-search bound.
var fuzzNames = []string{"x", "y", "cfg0", "x@0", "x@3", "y@12", "$in1", "$in10", "$in2", "$f1", "$f4097", "$h3", "$u1", "$k0"}

// formulaGen decodes bytes into a formula; past the input's end it
// reads zeros, which make leaves.
type formulaGen struct{ data []byte }

func (g *formulaGen) next() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *formulaGen) name() string {
	b := g.next()
	if b >= 0xc0 {
		return "$in" + strconv.Itoa(int(g.next()))
	}
	return fuzzNames[int(b)%len(fuzzNames)]
}

func (g *formulaGen) term(depth int) Term {
	b := g.next()
	if depth <= 0 {
		b %= 3
	}
	switch b % 5 {
	case 0:
		return Const{V: int64(int8(g.next()))}
	case 1, 2:
		return Var{Name: g.name()}
	case 3:
		return Bin{Op: BinOp(g.next() % 5), X: g.term(depth - 1), Y: g.term(depth - 1)}
	}
	return Neg{X: g.term(depth - 1)}
}

func (g *formulaGen) formula(depth int) Formula {
	b := g.next()
	if depth <= 0 {
		b %= 3
	}
	switch b % 6 {
	case 0:
		return Bool{V: b&8 != 0}
	case 1, 2:
		return Cmp{Op: CmpOp(g.next() % 6), X: g.term(2), Y: g.term(2)}
	case 3:
		return Not{F: g.formula(depth - 1)}
	}
	fs := make([]Formula, int(g.next()%4))
	for i := range fs {
		fs[i] = g.formula(depth - 1)
	}
	if b%6 == 4 {
		return And{Fs: fs}
	}
	return Or{Fs: fs}
}

// same reports whether b is a itself rather than a rebuilt copy:
// conjunctions and disjunctions share their arrays, other nodes are
// equal values.
func same(a, b Formula) bool {
	switch a := a.(type) {
	case And:
		b, ok := b.(And)
		return ok && len(a.Fs) == len(b.Fs) && (len(a.Fs) == 0 || &a.Fs[0] == &b.Fs[0])
	case Or:
		b, ok := b.(Or)
		return ok && len(a.Fs) == len(b.Fs) && (len(a.Fs) == 0 || &a.Fs[0] == &b.Fs[0])
	case Not:
		b, ok := b.(Not)
		return ok && same(a.F, b.F)
	}
	return a == b
}

// FuzzKeySubst1 checks three rewrites of package logic against the
// code they replaced, on random formulas over program, SSA and "$"
// names: Keyer (one reused across formulas) must serialize every
// formula to refKey's bytes; Subst1 must be Equal to Subst with the
// one-entry map, return f itself when the variable does not occur, and
// share every conjunct or disjunct it leaves unchanged; MkAnd must be
// Equal to refMkAnd.
func FuzzKeySubst1(f *testing.F) {
	f.Add([]byte{4, 3, 1, 1, 6, 1, 2, 2, 1, 7, 3, 2, 1, 0xc0, 17})
	f.Add([]byte{5, 2, 2, 1, 3, 1, 9, 0, 5, 3, 2, 0, 1, 1, 10, 1, 1})
	f.Add([]byte{3, 4, 3, 1, 3, 1, 1, 3, 4, 2, 1, 1, 2, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &formulaGen{data: data}
		fs := []Formula{g.formula(4), g.formula(3)}
		name, repl := g.name(), g.term(2)

		var k Keyer
		for _, h := range append(fs, fs[0]) {
			if got, want := string(k.Key(h)), refKey(h); got != want {
				t.Fatalf("Keyer %q, reference %q", got, want)
			}
		}
		if got, want := Key(fs[0]), refKey(fs[0]); got != want {
			t.Fatalf("Key %q, reference %q", got, want)
		}

		h := fs[0]
		got := Subst1(h, name, repl)
		if want := Subst(h, map[string]Term{name: repl}); !Equal(got, want) {
			t.Fatalf("Subst1(%s, %s := %s) = %s, Subst %s", h, name, repl, got, want)
		}
		if !slices.Contains(Vars(h), name) && !same(h, got) {
			t.Fatalf("Subst1 rebuilt %s, which does not mention %s", h, name)
		}
		var kids, gotKids []Formula
		switch h := h.(type) {
		case And:
			kids, gotKids = h.Fs, got.(And).Fs
		case Or:
			kids, gotKids = h.Fs, got.(Or).Fs
		}
		for i, kid := range kids {
			if !slices.Contains(Vars(kid), name) && !same(kid, gotKids[i]) {
				t.Fatalf("Subst1 rebuilt %s, which does not mention %s", kid, name)
			}
		}

		args := append(append([]Formula{}, kids...), fs[1])
		for n := 0; n <= len(args); n++ {
			if got, want := MkAnd(args[:n]...), refMkAnd(args[:n]...); !Equal(got, want) {
				t.Fatalf("MkAnd(%v) = %s, reference %s", args[:n], got, want)
			}
		}
		if got, want := MkAnd(h), refMkAnd(h); !Equal(got, want) {
			t.Fatalf("MkAnd(%s) = %s, reference %s", h, got, want)
		}
	})
}
