package smt

import (
	"math"
	"math/big"
	"testing"
)

// numEdges are the word-boundary magnitudes num's overflow checks turn
// on; operands are drawn at and near them.
var numEdges = func() []*big.Int {
	out := []*big.Int{big.NewInt(0), big.NewInt(math.MinInt64)}
	for _, v := range []*big.Int{
		big.NewInt(1),
		big.NewInt(1 << 31),
		big.NewInt(1 << 32),
		big.NewInt(1 << 62),
		big.NewInt(math.MaxInt64),
	} {
		out = append(out, v, new(big.Int).Neg(v))
	}
	return out
}()

// edgeInt decodes an integer at a small offset from one of numEdges.
func (d *fuzzDecoder) edgeInt() *big.Int {
	base := numEdges[int(d.next())%len(numEdges)]
	return new(big.Int).Add(base, big.NewInt(int64(int8(d.next()))))
}

// edgeRat decodes a rational whose numerator and (half the time)
// denominator sit near the word boundaries.
func (d *fuzzDecoder) edgeRat() *big.Rat {
	n := d.edgeInt()
	den := big.NewInt(1)
	if d.next()%2 == 1 {
		if den = d.edgeInt(); den.Sign() == 0 {
			den.SetInt64(1)
		}
	}
	return new(big.Rat).SetFrac(n, den)
}

// checkNum fails unless x has the value want in its one canonical form:
// inline exactly when the reduced fraction fits (numerator ≠ MinInt64).
func checkNum(t *testing.T, op string, x num, want *big.Rat) {
	t.Helper()
	if x.rat().Cmp(want) != 0 {
		t.Fatalf("%s = %s, want %s", op, x, want.RatString())
	}
	fits := want.Num().IsInt64() && want.Num().Int64() != math.MinInt64 && want.Denom().IsInt64()
	if fits != (x.b == nil) {
		t.Fatalf("%s = %s: inline=%v, want inline=%v", op, want.RatString(), x.b == nil, fits)
	}
	if x.String() != want.RatString() {
		t.Fatalf("%s renders %q, want %q", op, x.String(), want.RatString())
	}
}

// FuzzNum checks every operation of num against math/big for exact
// equality, with operands at the int64 word boundaries where the
// inline form overflows into big.Rat and back.
func FuzzNum(f *testing.F) {
	// Operand bytes: edge index, offset, odd for a denominator[, its
	// edge index and offset]. Most of these products overflow 64 bits.
	f.Add([]byte{10, 0, 0, 10, 0, 0})             // MaxInt64 · MaxInt64
	f.Add([]byte{1, 0, 0, 1, 0, 0})               // MinInt64 · MinInt64
	f.Add([]byte{8, 0, 0, 9, 0, 0})               // 2^62 · -2^62
	f.Add([]byte{6, 0, 0, 6, 1, 0})               // 2^32 · (2^32+1)
	f.Add([]byte{4, 0, 1, 10, 0, 4, 0, 1, 8, 5})  // 2^31/MaxInt64 vs 2^31/(2^62+5)
	f.Add([]byte{10, 0, 1, 3, 0, 11, 0, 1, 2, 0}) // MaxInt64/-1 vs -MaxInt64
	f.Add([]byte{2, 0xff, 0, 1, 0xff, 1, 10, 0})  // 0 vs (MinInt64-1)/MaxInt64
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzDecoder{data: data}
		ar, br := d.edgeRat(), d.edgeRat()
		a, b := numFromRat(ar), numFromRat(br)
		checkNum(t, "a", a, ar)
		checkNum(t, "b", b, br)
		checkNum(t, "a+b", a.add(b), new(big.Rat).Add(ar, br))
		checkNum(t, "a-b", a.sub(b), new(big.Rat).Sub(ar, br))
		checkNum(t, "a*b", a.mul(b), new(big.Rat).Mul(ar, br))
		checkNum(t, "-a", a.neg(), new(big.Rat).Neg(ar))
		if br.Sign() != 0 {
			checkNum(t, "a/b", a.quo(b), new(big.Rat).Quo(ar, br))
		}
		if got, want := a.cmp(b), ar.Cmp(br); got != want {
			t.Fatalf("cmp(%s, %s) = %d, want %d", ar.RatString(), br.RatString(), got, want)
		}
		if got, want := a.sign(), ar.Sign(); got != want {
			t.Fatalf("sign(%s) = %d, want %d", ar.RatString(), got, want)
		}
		if got, want := a.isInt(), ar.IsInt(); got != want {
			t.Fatalf("isInt(%s) = %v, want %v", ar.RatString(), got, want)
		}
		fl := new(big.Int).Div(ar.Num(), ar.Denom()) // Euclidean = floor for a positive divisor
		checkNum(t, "floor(a)", a.floor(), new(big.Rat).SetInt(fl))
		i, ok := a.int64()
		if wantOK := ar.IsInt() && ar.Num().IsInt64(); ok != wantOK || (ok && i != ar.Num().Int64()) {
			t.Fatalf("int64(%s) = %d, %v", ar.RatString(), i, ok)
		}
		if ar.IsInt() && br.IsInt() && br.Sign() != 0 {
			q, r := truncQuoRem(a, b)
			wq, wr := new(big.Int).QuoRem(ar.Num(), br.Num(), new(big.Int))
			checkNum(t, "quo(a, b)", q, new(big.Rat).SetInt(wq))
			checkNum(t, "rem(a, b)", r, new(big.Rat).SetInt(wr))
		}
	})
}

// TestNumWordPathsStayInline pins the common case the kernel is built
// for: small operands compute inline, with no big.Rat behind them.
func TestNumWordPathsStayInline(t *testing.T) {
	x := numInt(3).quo(numInt(4)) // 3/4
	y := numInt(-5).quo(numInt(6))
	for _, r := range []num{x.add(y), x.sub(y), x.mul(y), x.quo(y), x.neg(), x.floor()} {
		if r.b != nil {
			t.Fatalf("%s took the big.Rat path", r)
		}
	}
	if got := x.add(y).String(); got != "-1/12" {
		t.Errorf("3/4 + -5/6 = %s", got)
	}
	if x.cmp(y) != 1 || y.cmp(x) != -1 || x.cmp(x) != 0 {
		t.Error("cmp")
	}
	wide := numInt(math.MaxInt64).add(numInt(1))
	if wide.b == nil || wide.String() != "9223372036854775808" {
		t.Fatalf("MaxInt64+1 = %s (inline=%v)", wide, wide.b == nil)
	}
	if back := wide.sub(numInt(2)); back.b != nil || back.n != math.MaxInt64-1 {
		t.Fatalf("a result that fits must be re-inlined: %s", back)
	}
}

func TestFloorDiv(t *testing.T) {
	if floorDiv(7, 2) != 3 || floorDiv(-7, 2) != -4 {
		t.Error("floorDiv")
	}
}
