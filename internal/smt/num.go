package smt

import (
	"cmp"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// num is an exact rational number: the one value type of the simplex,
// the linearizer and the models they produce.
//
// A value that fits is held inline as a reduced fraction n/d with d > 0
// and n ≠ MinInt64, so that negation and absolute value never
// overflow; d is stored as d1 = d-1 so that the zero num is 0. A value
// that does not fit is held as a *big.Rat (n and d1 unused), which is
// never mutated once stored. Every operation takes the word path only
// when its result provably fits, and otherwise computes on big.Rat and
// re-inlines a result that fits. There is no rounding and no
// saturation, and every value has exactly one form, so results are the
// ones math/big gives.
type num struct {
	n, d1 int64
	b     *big.Rat
}

// numInt returns the integer v.
func numInt(v int64) num {
	if v == math.MinInt64 {
		return num{b: new(big.Rat).SetInt64(v)}
	}
	return num{n: v}
}

// numFromRat returns r as a num, inline when it fits; r must not be
// mutated afterwards.
func numFromRat(r *big.Rat) num {
	n, d := r.Num(), r.Denom()
	if n.IsInt64() && d.IsInt64() {
		if nv := n.Int64(); nv != math.MinInt64 {
			return num{n: nv, d1: d.Int64() - 1}
		}
	}
	return num{b: r}
}

// numFromInt returns the integer v as a num.
func numFromInt(v *big.Int) num {
	if v.IsInt64() {
		return numInt(v.Int64())
	}
	return num{b: new(big.Rat).SetInt(v)}
}

// rat returns the value as a *big.Rat the caller must not mutate.
func (a num) rat() *big.Rat {
	if a.b != nil {
		return a.b
	}
	return big.NewRat(a.n, a.d1+1)
}

func (a num) sign() int {
	if a.b != nil {
		return a.b.Sign()
	}
	switch {
	case a.n > 0:
		return 1
	case a.n < 0:
		return -1
	}
	return 0
}

func (a num) isInt() bool {
	if a.b != nil {
		return a.b.IsInt()
	}
	return a.d1 == 0
}

// int64 returns the value when it is an integer in int64 range.
func (a num) int64() (int64, bool) {
	if a.b == nil {
		return a.n, a.d1 == 0
	}
	if a.b.IsInt() && a.b.Num().IsInt64() {
		return a.b.Num().Int64(), true
	}
	return 0, false
}

func (a num) neg() num {
	if a.b != nil {
		return numFromRat(new(big.Rat).Neg(a.b))
	}
	return num{n: -a.n, d1: a.d1}
}

func (a num) add(b num) num {
	if a.b == nil && b.b == nil {
		if r, ok := addWord(a, b); ok {
			return r
		}
	}
	return numFromRat(new(big.Rat).Add(a.rat(), b.rat()))
}

func (a num) sub(b num) num { return a.add(b.neg()) }

func (a num) mul(b num) num {
	if a.b == nil && b.b == nil {
		if r, ok := mulWord(a, b); ok {
			return r
		}
	}
	return numFromRat(new(big.Rat).Mul(a.rat(), b.rat()))
}

// quo returns a/b; like big.Rat it panics when b is zero.
func (a num) quo(b num) num {
	if b.sign() == 0 {
		panic("smt: division by zero")
	}
	if b.b == nil {
		// 1/b is inline: |b.n| ≤ MaxInt64 becomes the denominator.
		inv := num{n: b.d1 + 1, d1: b.n - 1}
		if b.n < 0 {
			inv = num{n: -(b.d1 + 1), d1: -b.n - 1}
		}
		return a.mul(inv)
	}
	return numFromRat(new(big.Rat).Quo(a.rat(), b.rat()))
}

func (a num) cmp(b num) int {
	if a.b != nil || b.b != nil {
		return a.rat().Cmp(b.rat())
	}
	if a.d1 == b.d1 {
		return cmp.Compare(a.n, b.n)
	}
	// Compare a.n·b.d with b.n·a.d in 128 bits.
	sa, sb := a.sign(), b.sign()
	if sa != sb || sa == 0 {
		return cmp.Compare(sa, sb)
	}
	xh, xl := bits.Mul64(uabs(a.n), uint64(b.d1)+1)
	yh, yl := bits.Mul64(uabs(b.n), uint64(a.d1)+1)
	c := cmp.Compare(xh, yh)
	if c == 0 {
		c = cmp.Compare(xl, yl)
	}
	return c * sa
}

// floor returns ⌊a⌋.
func (a num) floor() num {
	if a.b == nil {
		return num{n: floorDiv(a.n, a.d1+1)}
	}
	q := new(big.Int)
	q.DivMod(a.b.Num(), a.b.Denom(), new(big.Int))
	return numFromInt(q)
}

// truncQuoRem returns the truncated quotient and remainder of the
// integers x and y ≠ 0, as big.Int's QuoRem does.
func truncQuoRem(x, y num) (q, r num) {
	if x.b == nil && y.b == nil {
		// x.n ≠ MinInt64, so x.n / -1 cannot overflow.
		return num{n: x.n / y.n}, num{n: x.n % y.n}
	}
	qi, ri := new(big.Int).QuoRem(x.rat().Num(), y.rat().Num(), new(big.Int))
	return numFromInt(qi), numFromInt(ri)
}

// String renders the value as big.Rat's RatString does: "n" for an
// integer, "n/d" otherwise.
func (a num) String() string {
	if a.b != nil {
		return a.b.RatString()
	}
	if a.d1 == 0 {
		return strconv.FormatInt(a.n, 10)
	}
	return strconv.FormatInt(a.n, 10) + "/" + strconv.FormatUint(uint64(a.d1)+1, 10)
}

// addWord is a+b on inline operands (Knuth, TAOCP 4.5.1); ok is false
// when an intermediate or the result does not fit.
func addWord(a, b num) (num, bool) {
	if a.d1 == 0 && b.d1 == 0 {
		s, ok := add64(a.n, b.n)
		return num{n: s}, ok
	}
	ad, bd := a.d1+1, b.d1+1
	g := gcd64(ad, bd)
	x, ok1 := mul64(a.n, bd/g)
	y, ok2 := mul64(b.n, ad/g)
	t, ok3 := add64(x, y)
	if !ok1 || !ok2 || !ok3 {
		return num{}, false
	}
	if t == 0 {
		return num{}, true
	}
	g2 := g
	if g != 1 {
		g2 = gcd64(int64(uabs(t)), g)
	}
	d, ok := mul64(ad/g, bd/g2)
	if !ok {
		return num{}, false
	}
	return num{n: t / g2, d1: d - 1}, true
}

// mulWord is a·b on inline operands (Knuth, TAOCP 4.5.1); ok is false
// when the result does not fit.
func mulWord(a, b num) (num, bool) {
	if a.n == 0 || b.n == 0 {
		return num{}, true
	}
	if a.d1 == 0 && b.d1 == 0 {
		p, ok := mul64(a.n, b.n)
		return num{n: p}, ok
	}
	g1 := gcd64(int64(uabs(a.n)), b.d1+1)
	g2 := gcd64(int64(uabs(b.n)), a.d1+1)
	n, ok1 := mul64(a.n/g1, b.n/g2)
	d, ok2 := mul64((a.d1+1)/g2, (b.d1+1)/g1)
	if !ok1 || !ok2 {
		return num{}, false
	}
	return num{n: n, d1: d - 1}, true
}

// add64 returns a+b; ok is false on overflow or a MinInt64 result.
func add64(a, b int64) (int64, bool) {
	s := a + b
	return s, (a^s)&(b^s) >= 0 && s != math.MinInt64
}

// mul64 returns a·b; ok is false on overflow or a MinInt64 result.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uabs(a), uabs(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// floorDiv returns ⌊a/b⌋ for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// gcd64 returns gcd(a, b) for a, b ≥ 0 (a, b not both zero).
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func uabs(a int64) uint64 {
	if a < 0 {
		return uint64(-a)
	}
	return uint64(a)
}
