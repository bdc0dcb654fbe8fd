package analysis

import (
	"fmt"
	"math"

	"repro/internal/minipy"
)

// ivKind classifies an abstract integer fact about one runtime value.
type ivKind uint8

const (
	// ivBot is the unreachable/no-value element (empty set).
	ivBot ivKind = iota
	// ivInt means the value is definitely a minipy.Int within [lo, hi].
	ivInt
	// ivAny means nothing is known (any type, any value).
	ivAny
)

// ival is the integer-interval abstract domain: either ⊥, "definitely an
// int in [lo,hi]", or ⊤. Bounds are inclusive; math.MinInt64/MaxInt64 act
// as -∞/+∞. The domain deliberately has no separate "int but unbounded"
// element — that is ivInt with infinite bounds — so every claim the
// certificate makes is of one shape: int-ness plus a range.
type ival struct {
	k      ivKind
	lo, hi int64
}

var (
	ivTop     = ival{k: ivAny}
	ivBottom  = ival{k: ivBot}
	ivFullInt = ival{k: ivInt, lo: math.MinInt64, hi: math.MaxInt64}
)

func ivConst(v int64) ival      { return ival{k: ivInt, lo: v, hi: v} }
func ivRange(lo, hi int64) ival { return ival{k: ivInt, lo: lo, hi: hi} }
func (a ival) isInt() bool      { return a.k == ivInt }
func (a ival) isConst() bool    { return a.k == ivInt && a.lo == a.hi }
func (a ival) contains(v int64) bool {
	return a.k == ivInt && a.lo <= v && v <= a.hi
}

// excludesZero reports whether the value is a proven non-zero int — the
// division-safety fact.
func (a ival) excludesZero() bool {
	return a.k == ivInt && (a.lo > 0 || a.hi < 0)
}

func (a ival) String() string {
	switch a.k {
	case ivBot:
		return "bot"
	case ivAny:
		return "any"
	}
	if a.lo == math.MinInt64 && a.hi == math.MaxInt64 {
		return "int"
	}
	lo, hi := "-inf", "+inf"
	if a.lo != math.MinInt64 {
		lo = fmt.Sprint(a.lo)
	}
	if a.hi != math.MaxInt64 {
		hi = fmt.Sprint(a.hi)
	}
	return fmt.Sprintf("int[%s,%s]", lo, hi)
}

// ivJoin is the least upper bound.
func ivJoin(a, b ival) ival {
	if a.k == ivBot {
		return b
	}
	if b.k == ivBot {
		return a
	}
	if a.k == ivAny || b.k == ivAny {
		return ivTop
	}
	return ival{k: ivInt, lo: min64(a.lo, b.lo), hi: max64(a.hi, b.hi)}
}

// ivWiden jumps unstable bounds to infinity so loop fixpoints converge in a
// bounded number of rounds (classic interval widening).
func ivWiden(old, next ival) ival {
	j := ivJoin(old, next)
	if old.k != ivInt || j.k != ivInt {
		return j
	}
	out := j
	if j.lo < old.lo {
		out.lo = math.MinInt64
	}
	if j.hi > old.hi {
		out.hi = math.MaxInt64
	}
	return out
}

func (a ival) eq(b ival) bool { return a == b }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// addOv/subOv/mulOv perform int64 arithmetic with overflow detection. The
// VM's Int wraps like int64, so a saturated bound would be UNsound — any
// overflow in a corner evaluation collapses the result to the full int
// range instead ("still an int, bounds unknown").
func addOv(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func subOv(a, b int64) (int64, bool) {
	s := a - b
	if (b < 0 && s < a) || (b > 0 && s > a) {
		return 0, false
	}
	return s, true
}

func mulOv(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/a != b || (a == -1 && b == math.MinInt64) || (b == -1 && a == math.MinInt64) {
		return 0, false
	}
	return p, true
}

// corners evaluates f over the four endpoint pairs and hulls the results;
// any overflow widens to the full int range. Valid for operations that are
// monotone in each argument over the operand boxes (add, sub, mul, and
// floor-div with a divisor interval excluding zero).
func corners(a, b ival, f func(x, y int64) (int64, bool)) ival {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, x := range [2]int64{a.lo, a.hi} {
		for _, y := range [2]int64{b.lo, b.hi} {
			v, ok := f(x, y)
			if !ok {
				return ivFullInt
			}
			lo, hi = min64(lo, v), max64(hi, v)
		}
	}
	return ival{k: ivInt, lo: lo, hi: hi}
}

// ivBinary is the transfer function for OpBinary over two proven-int
// operands. ok=false means the result is not (or not provably) an int —
// the caller falls back to ⊤. mayRaise reports a possible ZeroDivisionError.
func ivBinary(op minipy.BinOpCode, a, b ival) (res ival, mayRaise bool, ok bool) {
	if !a.isInt() || !b.isInt() {
		return ivTop, true, false
	}
	switch op {
	case minipy.BinAdd:
		return corners(a, b, addOv), false, true
	case minipy.BinSub:
		return corners(a, b, subOv), false, true
	case minipy.BinMul:
		return corners(a, b, mulOv), false, true
	case minipy.BinFloorDiv:
		if !b.excludesZero() {
			return ivTop, true, false
		}
		return corners(a, b, func(x, y int64) (int64, bool) {
			if x == math.MinInt64 && y == -1 {
				return 0, false
			}
			return minipy.FloorDivInt(x, y), true
		}), false, true
	case minipy.BinMod:
		if !b.excludesZero() {
			return ivTop, true, false
		}
		// Python's % takes the divisor's sign: d>0 → [0,d-1], d<0 → [d+1,0].
		lo, hi := int64(0), int64(0)
		if b.hi > 0 {
			hi = b.hi - 1
		}
		if b.lo < 0 {
			lo = b.lo + 1
		}
		return ival{k: ivInt, lo: lo, hi: hi}, false, true
	case minipy.BinPow:
		// int ** negative-int is a float in Python; only a proven
		// non-negative exponent keeps the result an int.
		if b.lo < 0 {
			return ivTop, true, false
		}
		return powInterval(a, b), false, true
	}
	// Division produces floats; comparisons produce bools; "in" needs a
	// container. None of them yields an int claim.
	return ivTop, true, false
}

// powInterval bounds a**b for a proven-int base and non-negative exponent.
// Exponent ranges beyond a small cap widen to the full int range (the VM
// wraps, so large powers are unpredictable anyway).
func powInterval(a, b ival) ival {
	if b.hi > 63 {
		return ivFullInt
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, x := range [2]int64{a.lo, a.hi} {
		for e := b.lo; e <= b.hi; e++ {
			v, ok := powOv(x, e)
			if !ok {
				return ivFullInt
			}
			lo, hi = min64(lo, v), max64(hi, v)
		}
	}
	// A negative base's extremes can sit strictly inside (alternating
	// signs); hull with ±|base|^maxExp to stay sound.
	if a.lo < 0 {
		v, ok := powOv(a.lo, b.hi)
		if !ok {
			return ivFullInt
		}
		if v < 0 {
			v, ok = mulOv(v, -1)
			if !ok {
				return ivFullInt
			}
		}
		lo, hi = min64(lo, -v), max64(hi, v)
	}
	return ival{k: ivInt, lo: lo, hi: hi}
}

func powOv(base, exp int64) (int64, bool) {
	var r int64 = 1
	for i := int64(0); i < exp; i++ {
		var ok bool
		r, ok = mulOv(r, base)
		if !ok {
			return 0, false
		}
	}
	return r, true
}
