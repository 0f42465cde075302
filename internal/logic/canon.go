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
func Key(f Formula) string {
	var k Keyer
	return string(k.Key(f))
}

// Keyer serializes formulas into Key's bytes, reusing its buffer and
// its map of fresh names from call to call, so a Keyer that has served
// formulas of a given size serializes the next one without allocating.
// A Keyer is not safe for concurrent use.
type Keyer struct {
	buf   []byte
	fresh map[string]int // "$" name → its first-occurrence index
}

// freshKeep bounds the fresh names a Keyer's map keeps room for: a map
// that served a trace formula with thousands is dropped rather than
// cleared at that size on every later call.
const freshKeep = 64

// Key returns Key(f) as bytes. The bytes alias the Keyer's buffer and
// stay valid until its next call.
func (k *Keyer) Key(f Formula) []byte {
	if k.buf == nil {
		k.buf = make([]byte, 0, 64)
	}
	if k.fresh == nil || len(k.fresh) > freshKeep {
		k.fresh = make(map[string]int)
	} else {
		clear(k.fresh)
	}
	k.buf = k.buf[:0]
	k.formula(f)
	return k.buf
}

func (k *Keyer) name(v string) {
	if !strings.HasPrefix(v, "$") {
		k.buf = append(k.buf, v...)
		return
	}
	i, ok := k.fresh[v]
	if !ok {
		i = len(k.fresh)
		k.fresh[v] = i
	}
	k.buf = strconv.AppendInt(append(k.buf, "$k"...), int64(i), 10)
}

func (k *Keyer) term(t Term) {
	switch t := t.(type) {
	case Const:
		k.buf = strconv.AppendInt(k.buf, t.V, 10)
	case Var:
		k.name(t.Name)
	case Bin:
		k.buf = append(k.buf, '(')
		k.term(t.X)
		k.buf = append(append(append(k.buf, ' '), t.Op.String()...), ' ')
		k.term(t.Y)
		k.buf = append(k.buf, ')')
	case Neg:
		k.buf = append(k.buf, "(-"...)
		k.term(t.X)
		k.buf = append(k.buf, ')')
	}
}

func (k *Keyer) formula(f Formula) {
	switch f := f.(type) {
	case Bool:
		k.buf = append(k.buf, f.String()...)
	case Cmp:
		k.buf = append(k.buf, '(')
		k.term(f.X)
		k.buf = append(append(append(k.buf, ' '), f.Op.String()...), ' ')
		k.term(f.Y)
		k.buf = append(k.buf, ')')
	case Not:
		k.buf = append(k.buf, '!')
		k.formula(f.F)
	case And:
		k.join(f.Fs, " && ", "true")
	case Or:
		k.join(f.Fs, " || ", "false")
	}
}

func (k *Keyer) join(fs []Formula, sep, empty string) {
	if len(fs) == 0 {
		k.buf = append(k.buf, empty...)
		return
	}
	k.buf = append(k.buf, '(')
	for i, f := range fs {
		if i > 0 {
			k.buf = append(k.buf, sep...)
		}
		k.formula(f)
	}
	k.buf = append(k.buf, ')')
}
