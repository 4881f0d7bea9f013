package exec

import (
	"math"

	"hpfperf/internal/ast"
	"hpfperf/internal/hir"
)

// kind is the run-time representation of a lowered scalar expression.
// Almost every expression has one fixed kind; kDyn marks the few whose
// kind depends on which definition reached a read (a scalar written
// with several types, or MIN/MAX over mixed kinds) and which therefore
// carry a tagged val.
type kind uint8

const (
	kFloat kind = iota
	kInt
	kBool
	kDyn
)

func kindOf(t ast.BaseType) kind {
	switch t {
	case ast.TInteger:
		return kInt
	case ast.TLogical:
		return kBool
	}
	return kFloat
}

func kindOfVal(v val) kind {
	switch {
	case v.isInt:
		return kInt
	case v.isBool:
		return kBool
	}
	return kFloat
}

// expr is a lowered expression: a typed closure, exactly the one
// matching k being set. Closures report run-time errors through
// frame.fail and return a zero value; the enclosing statement checks
// frame.err once the expression has been evaluated.
type expr struct {
	k kind
	i func(*frame) int64
	f func(*frame) float64
	b func(*frame) bool
	v func(*frame) val
}

func intE(fn func(*frame) int64) expr     { return expr{k: kInt, i: fn} }
func floatE(fn func(*frame) float64) expr { return expr{k: kFloat, f: fn} }
func boolE(fn func(*frame) bool) expr     { return expr{k: kBool, b: fn} }
func dynE(fn func(*frame) val) expr       { return expr{k: kDyn, v: fn} }

// toI returns e as an INTEGER closure with val.asI conversion semantics.
func toI(e expr) func(*frame) int64 {
	switch e.k {
	case kInt:
		return e.i
	case kFloat:
		f := e.f
		return func(fr *frame) int64 { return int64(f(fr)) }
	case kBool:
		b := e.b
		return func(fr *frame) int64 {
			if b(fr) {
				return 1
			}
			return 0
		}
	}
	v := e.v
	return func(fr *frame) int64 { return v(fr).asI() }
}

// toF returns e as a REAL closure with val.asF conversion semantics.
func toF(e expr) func(*frame) float64 {
	switch e.k {
	case kFloat:
		return e.f
	case kInt:
		i := e.i
		return func(fr *frame) float64 { return float64(i(fr)) }
	case kBool:
		b := e.b
		return func(fr *frame) float64 {
			if b(fr) {
				return 1
			}
			return 0
		}
	}
	v := e.v
	return func(fr *frame) float64 { return v(fr).asF() }
}

// toB returns e as a LOGICAL closure with val.asB conversion semantics.
func toB(e expr) func(*frame) bool {
	switch e.k {
	case kBool:
		return e.b
	case kInt:
		i := e.i
		return func(fr *frame) bool { return i(fr) != 0 }
	case kFloat:
		f := e.f
		return func(fr *frame) bool { return f(fr) != 0 }
	}
	v := e.v
	return func(fr *frame) bool { return v(fr).asB() }
}

// toV returns e as a tagged-value closure.
func toV(e expr) func(*frame) val {
	switch e.k {
	case kInt:
		i := e.i
		return func(fr *frame) val { return intV(i(fr)) }
	case kFloat:
		f := e.f
		return func(fr *frame) val { return floatV(f(fr)) }
	case kBool:
		b := e.b
		return func(fr *frame) val { return boolV(b(fr)) }
	}
	return e.v
}

// convert returns e converted to type t (Fortran assignment conversion,
// convertTo) as an expression of kind kindOf(t).
func convert(e expr, t ast.BaseType) expr {
	switch kindOf(t) {
	case kInt:
		return intE(toI(e))
	case kBool:
		return boolE(toB(e))
	}
	return floatE(toF(e))
}

// constE lowers a literal.
func constE(v val) expr {
	e := expr{k: kindOfVal(v)}
	switch e.k {
	case kInt:
		i := v.i
		e.i = func(*frame) int64 { return i }
	case kBool:
		b := v.b
		e.b = func(*frame) bool { return b }
	default:
		f := v.f
		e.f = func(*frame) float64 { return f }
	}
	return e
}

// failE is an expression that evaluates args (for their errors, in
// source order) and then fails with msg.
func failE(msg string, args ...expr) expr {
	vs := make([]func(*frame) val, len(args))
	for i, a := range args {
		vs[i] = toV(a)
	}
	return floatE(func(fr *frame) float64 {
		for _, v := range vs {
			v(fr)
		}
		fr.fail("%s", msg)
		return 0
	})
}

// expr lowers an HIR expression.
func (l *lowerer) expr(e hir.Expr) expr {
	switch x := e.(type) {
	case *hir.Const:
		return constE(fromSem(x.Val))
	case *hir.Ref:
		return l.ref(x.Name, x.Typ)
	case *hir.Elem:
		return l.elem(x)
	case *hir.Bin:
		return l.bin(x)
	case *hir.Un:
		return l.un(x)
	case *hir.Intr:
		return l.intr(x)
	}
	return failE("unsupported expression " + typeName(e))
}

// ref lowers a read of scalar name whose declared type is t. Fortran
// leaves uninitialized variables undefined; a never-assigned scalar
// reads as convertTo(val{}, t).
func (l *lowerer) ref(name string, t ast.BaseType) expr {
	s := l.slot(name)
	if s.k != kDyn {
		// Static slots hold one kind, the kind of t (slot analysis
		// folds every read type in), and start at its zero value.
		idx := s.idx
		switch s.k {
		case kInt:
			return intE(func(fr *frame) int64 { return fr.ints[idx] })
		case kBool:
			return boolE(func(fr *frame) bool { return fr.bools[idx] })
		}
		return floatE(func(fr *frame) float64 { return fr.floats[idx] })
	}
	idx, zero := s.idx, convertTo(val{}, t)
	return dynE(func(fr *frame) val {
		if fr.set[idx] {
			return fr.vals[idx]
		}
		return zero
	})
}

// elem lowers an array element read; its kind is the storage type.
func (l *lowerer) elem(x *hir.Elem) expr {
	a, ok := l.arrays[x.Array]
	if !ok {
		return failE("array " + x.Array + " has no storage")
	}
	ref := l.elemRef(a, x.Subs)
	info := &l.prog.arrays[a]
	load := func(fr *frame) float64 {
		var b idxBuf
		off, ok := ref.locate(fr, ref.buf(&b))
		if !ok {
			return 0
		}
		return fr.arrays[a][off]
	}
	if len(ref.subs) == 1 {
		// One-dimensional fast path: the affine subscript and its bounds
		// check inline into the load.
		s, lo, hi, name := ref.subs[0], ref.lo[0], ref.hi[0], info.name
		load = func(fr *frame) float64 {
			g := s.at(fr)
			if g < lo || g > hi {
				fr.failBounds(1, name, g, lo, hi)
				return 0
			}
			return fr.arrays[a][g-lo]
		}
	}
	return loadAs(info.typ, load)
}

// loadAs reads an element stored as float64 with the kind of its
// storage type t.
func loadAs(t ast.BaseType, load func(*frame) float64) expr {
	switch kindOf(t) {
	case kInt:
		return intE(func(fr *frame) int64 { return int64(load(fr)) })
	case kBool:
		return boolE(func(fr *frame) bool { return load(fr) != 0 })
	}
	return floatE(load)
}

// cmp3 orders two values as -1, 0 or 1. Unordered NaN operands give 0,
// so a NaN compares equal to everything; comparisons keep that
// established semantics rather than IEEE's.
func cmp3[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpVals(a, b val) int {
	if a.isInt && b.isInt {
		return cmp3(a.asI(), b.asI())
	}
	return cmp3(a.asF(), b.asF())
}

func holds(op hir.Op, c int) bool {
	switch op {
	case hir.OpEq:
		return c == 0
	case hir.OpNe:
		return c != 0
	case hir.OpLt:
		return c < 0
	case hir.OpLe:
		return c <= 0
	case hir.OpGt:
		return c > 0
	}
	return c >= 0 // OpGe
}

func (l *lowerer) bin(x *hir.Bin) expr {
	a, b := l.expr(x.X), l.expr(x.Y)
	op := x.Op
	// Both operands are always evaluated (no short circuit), so an error
	// in either surfaces exactly as it would in source order.
	switch op {
	case hir.OpAnd:
		ab, bb := toB(a), toB(b)
		return boolE(func(fr *frame) bool { p := ab(fr); q := bb(fr); return p && q })
	case hir.OpOr:
		ab, bb := toB(a), toB(b)
		return boolE(func(fr *frame) bool { p := ab(fr); q := bb(fr); return p || q })
	}
	if op.IsCompare() {
		switch {
		case a.k == kDyn || b.k == kDyn:
			av, bv := toV(a), toV(b)
			return boolE(func(fr *frame) bool { return holds(op, cmpVals(av(fr), bv(fr))) })
		case a.k == kInt && b.k == kInt:
			ai, bi := a.i, b.i
			return boolE(func(fr *frame) bool { return holds(op, cmp3(ai(fr), bi(fr))) })
		}
		af, bf := toF(a), toF(b)
		return boolE(func(fr *frame) bool { return holds(op, cmp3(af(fr), bf(fr))) })
	}
	if x.Typ == ast.TInteger {
		if e, ok := intBin(op, toI(a), toI(b)); ok {
			return e
		}
	}
	if e, ok := floatBin(op, toF(a), toF(b)); ok {
		return e
	}
	return failE("bad binary op "+op.String(), a, b)
}

func intBin(op hir.Op, a, b func(*frame) int64) (expr, bool) {
	switch op {
	case hir.OpAdd:
		return intE(func(fr *frame) int64 { return a(fr) + b(fr) }), true
	case hir.OpSub:
		return intE(func(fr *frame) int64 { return a(fr) - b(fr) }), true
	case hir.OpMul:
		return intE(func(fr *frame) int64 { return a(fr) * b(fr) }), true
	case hir.OpDiv:
		return intE(func(fr *frame) int64 {
			p, q := a(fr), b(fr)
			if q == 0 {
				fr.fail("integer division by zero")
				return 0
			}
			return p / q
		}), true
	case hir.OpPow:
		return intE(func(fr *frame) int64 {
			p, q := a(fr), b(fr)
			if q < 0 {
				return 0 // Fortran i**(-j) truncates to 0 for |i|>1
			}
			r := int64(1)
			for k := int64(0); k < q; k++ {
				r *= p
			}
			return r
		}), true
	}
	return expr{}, false
}

func floatBin(op hir.Op, x, y func(*frame) float64) (expr, bool) {
	switch op {
	case hir.OpAdd:
		return floatE(func(fr *frame) float64 { return x(fr) + y(fr) }), true
	case hir.OpSub:
		return floatE(func(fr *frame) float64 { return x(fr) - y(fr) }), true
	case hir.OpMul:
		return floatE(func(fr *frame) float64 { return x(fr) * y(fr) }), true
	case hir.OpDiv:
		return floatE(func(fr *frame) float64 { return x(fr) / y(fr) }), true
	case hir.OpPow:
		return floatE(func(fr *frame) float64 { return math.Pow(x(fr), y(fr)) }), true
	}
	return expr{}, false
}

func (l *lowerer) un(x *hir.Un) expr {
	a := l.expr(x.X)
	switch x.Op {
	case hir.OpNot:
		b := toB(a)
		return boolE(func(fr *frame) bool { return !b(fr) })
	case hir.OpNeg:
		if x.Typ == ast.TInteger {
			i := toI(a)
			return intE(func(fr *frame) int64 { return -i(fr) })
		}
		f := toF(a)
		return floatE(func(fr *frame) float64 { return -f(fr) })
	}
	return failE("bad unary op "+x.Op.String(), a)
}

// intrinsics1 are the one-argument REAL elemental intrinsics.
var intrinsics1 = map[string]func(float64) float64{
	"SQRT": math.Sqrt, "EXP": math.Exp, "LOG": math.Log,
	"SIN": math.Sin, "COS": math.Cos, "TAN": math.Tan, "ATAN": math.Atan,
}

func (l *lowerer) intr(x *hir.Intr) expr {
	args := make([]expr, len(x.Args))
	for i, a := range x.Args {
		args[i] = l.expr(a)
	}
	if fn, ok := intrinsics1[x.Name]; ok {
		f := toF(args[0])
		return floatE(func(fr *frame) float64 { return fn(f(fr)) })
	}
	switch x.Name {
	case "ABS":
		switch args[0].k {
		case kInt:
			i := args[0].i
			return intE(func(fr *frame) int64 {
				v := i(fr)
				if v < 0 {
					v = -v
				}
				return v
			})
		case kDyn:
			v := args[0].v
			return dynE(func(fr *frame) val {
				a := v(fr)
				if a.isInt {
					if a.i < 0 {
						return intV(-a.i)
					}
					return a
				}
				return floatV(math.Abs(a.asF()))
			})
		}
		f := toF(args[0])
		return floatE(func(fr *frame) float64 { return math.Abs(f(fr)) })
	case "MOD":
		a, b := args[0], args[1]
		switch {
		case a.k == kInt && b.k == kInt:
			ai, bi := a.i, b.i
			return intE(func(fr *frame) int64 {
				p, q := ai(fr), bi(fr)
				if q == 0 {
					fr.fail("MOD by zero")
					return 0
				}
				return p % q
			})
		case a.k == kDyn || b.k == kDyn:
			av, bv := toV(a), toV(b)
			return dynE(func(fr *frame) val {
				p, q := av(fr), bv(fr)
				if p.isInt && q.isInt {
					if q.i == 0 {
						fr.fail("MOD by zero")
						return val{}
					}
					return intV(p.i % q.i)
				}
				return floatV(math.Mod(p.asF(), q.asF()))
			})
		}
		af, bf := toF(a), toF(b)
		return floatE(func(fr *frame) float64 { return math.Mod(af(fr), bf(fr)) })
	case "MIN", "MAX":
		return minMax(x.Name == "MAX", args)
	case "SIGN":
		af, bf := toF(args[0]), toF(args[1])
		return floatE(func(fr *frame) float64 {
			m := math.Abs(af(fr))
			if bf(fr) < 0 {
				m = -m
			}
			return m
		})
	case "INT":
		return intE(toI(args[0]))
	case "REAL", "FLOAT", "DBLE":
		return floatE(toF(args[0]))
	}
	return failE("unsupported intrinsic "+x.Name, args...)
}

// minMax lowers MIN/MAX: the result is the winning argument itself
// (compared as REAL), so its kind is the arguments' common kind, or
// dynamic when they differ.
func minMax(isMax bool, args []expr) expr {
	better := func(a, out float64) bool {
		if isMax {
			return a > out
		}
		return a < out
	}
	k := args[0].k
	for _, a := range args[1:] {
		if a.k != k {
			k = kDyn
		}
	}
	switch k {
	case kFloat:
		fs := make([]func(*frame) float64, len(args))
		for i, a := range args {
			fs[i] = a.f
		}
		return floatE(func(fr *frame) float64 {
			out := fs[0](fr)
			for _, f := range fs[1:] {
				if a := f(fr); better(a, out) {
					out = a
				}
			}
			return out
		})
	case kInt:
		is := make([]func(*frame) int64, len(args))
		for i, a := range args {
			is[i] = a.i
		}
		return intE(func(fr *frame) int64 {
			out := is[0](fr)
			for _, f := range is[1:] {
				if a := f(fr); better(float64(a), float64(out)) {
					out = a
				}
			}
			return out
		})
	}
	vs := make([]func(*frame) val, len(args))
	for i, a := range args {
		vs[i] = toV(a)
	}
	return dynE(func(fr *frame) val {
		out := vs[0](fr)
		for _, v := range vs[1:] {
			if a := v(fr); better(a.asF(), out.asF()) {
				out = a
			}
		}
		return out
	})
}
