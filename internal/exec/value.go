// Package exec executes a compiled SPMD node program (package hir) on the
// simulated iPSC/860 machine (package ipsc), producing both functional
// results and "measured" execution times.
//
// The execution model is trace-driven: the program data is held once
// (loosely synchronous SPMD execution keeps replicated copies identical,
// and distributed arrays have a single authoritative owner per element),
// while time is accounted per node through the machine's cost models —
// computation is charged to the owners of each partitioned iteration,
// communication statements advance the participating nodes' clocks
// through the network model.
//
// RunContext lowers the program once (lower.go, expr.go, cost.go) into
// a tree of statement closures with precomputed costs, scalars resolved
// to frame slots and arrays to storage indices; every timed run then
// executes that shared, read-only program against its own frame.
package exec

import (
	"fmt"

	"hpfperf/internal/ast"
	"hpfperf/internal/sem"
)

// val is a runtime scalar value.
type val struct {
	isInt  bool
	isBool bool
	f      float64
	i      int64
	b      bool
}

func intV(i int64) val     { return val{isInt: true, i: i} }
func floatV(f float64) val { return val{f: f} }
func boolV(b bool) val     { return val{isBool: true, b: b} }

func (v val) asF() float64 {
	if v.isInt {
		return float64(v.i)
	}
	if v.isBool {
		if v.b {
			return 1
		}
		return 0
	}
	return v.f
}

func (v val) asI() int64 {
	if v.isInt {
		return v.i
	}
	if v.isBool {
		if v.b {
			return 1
		}
		return 0
	}
	return int64(v.f)
}

func (v val) asB() bool {
	if v.isBool {
		return v.b
	}
	if v.isInt {
		return v.i != 0
	}
	return v.f != 0
}

func (v val) String() string {
	switch {
	case v.isBool:
		if v.b {
			return "T"
		}
		return "F"
	case v.isInt:
		return fmt.Sprint(v.i)
	default:
		return fmt.Sprintf("%g", v.f)
	}
}

func fromSem(s sem.Value) val {
	switch s.Type {
	case ast.TInteger:
		return intV(s.I)
	case ast.TLogical:
		return boolV(s.B)
	default:
		return floatV(s.R)
	}
}

// convertTo coerces a value to a declared type (Fortran assignment
// conversion: reals truncate to integers).
func convertTo(v val, t ast.BaseType) val {
	switch t {
	case ast.TInteger:
		return intV(v.asI())
	case ast.TLogical:
		return boolV(v.asB())
	default:
		return floatV(v.asF())
	}
}
