// Package sem performs semantic analysis of a parsed HPF/Fortran 90D
// program: symbol resolution, typing, array shape analysis, constant
// folding, and resolution of the HPF mapping directives into the
// distribution descriptors of package dist.
package sem

import (
	"fmt"

	"hpfperf/internal/ast"
	"hpfperf/internal/dist"
	"hpfperf/internal/token"
)

// SymKind classifies a program name.
type SymKind int

const (
	SymScalar SymKind = iota
	SymArray
	SymConst
	SymTemplate
	SymProcs
)

func (k SymKind) String() string {
	switch k {
	case SymScalar:
		return "scalar"
	case SymArray:
		return "array"
	case SymConst:
		return "constant"
	case SymTemplate:
		return "template"
	case SymProcs:
		return "processors"
	}
	return "?"
}

// Symbol is a declared or implicitly typed name.
type Symbol struct {
	Name   string
	Kind   SymKind
	Type   ast.BaseType
	Bounds [][2]int       // constant-evaluated bounds for arrays/templates
	Const  Value          // value for SymConst
	Map    *dist.ArrayMap // mapping for SymArray (set after directive resolution)
}

// Rank returns the number of dimensions (0 for scalars).
func (s *Symbol) Rank() int { return len(s.Bounds) }

// Elems returns the total element count of an array symbol.
func (s *Symbol) Elems() int {
	n := 1
	for _, b := range s.Bounds {
		n *= b[1] - b[0] + 1
	}
	return n
}

// Value is a constant value: integer, real, or logical.
type Value struct {
	Type ast.BaseType
	I    int64
	R    float64
	B    bool
}

// IntVal builds an integer constant.
func IntVal(i int64) Value { return Value{Type: ast.TInteger, I: i} }

// RealVal builds a real constant.
func RealVal(r float64) Value { return Value{Type: ast.TReal, R: r} }

// LogicalVal builds a logical constant.
func LogicalVal(b bool) Value { return Value{Type: ast.TLogical, B: b} }

// AsFloat returns the value as float64 regardless of numeric type.
func (v Value) AsFloat() float64 {
	if v.Type == ast.TInteger {
		return float64(v.I)
	}
	return v.R
}

// AsInt returns the value as int64 (truncating reals, Fortran-style).
func (v Value) AsInt() int64 {
	if v.Type == ast.TInteger {
		return v.I
	}
	return int64(v.R)
}

func (v Value) String() string {
	switch v.Type {
	case ast.TInteger:
		return fmt.Sprint(v.I)
	case ast.TLogical:
		if v.B {
			return ".TRUE."
		}
		return ".FALSE."
	default:
		return fmt.Sprint(v.R)
	}
}

// Shape describes the extents of an array-valued expression; a nil *Shape
// denotes a scalar.
type Shape struct {
	Dims [][2]int
}

// Rank returns the number of dimensions.
func (s *Shape) Rank() int {
	if s == nil {
		return 0
	}
	return len(s.Dims)
}

// Elems returns the total number of elements.
func (s *Shape) Elems() int {
	if s == nil {
		return 1
	}
	n := 1
	for _, d := range s.Dims {
		n *= d[1] - d[0] + 1
	}
	return n
}

// Conforms reports whether two shapes have identical extents per dimension
// (Fortran conformance ignores bounds, only extents matter).
func (s *Shape) Conforms(o *Shape) bool {
	if s.Rank() != o.Rank() {
		return false
	}
	if s == nil {
		return true
	}
	for i := range s.Dims {
		if s.Dims[i][1]-s.Dims[i][0] != o.Dims[i][1]-o.Dims[i][0] {
			return false
		}
	}
	return true
}

// Error is a semantic error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Info is the result of semantic analysis.
type Info struct {
	Prog    *ast.Program
	Symbols map[string]*Symbol
	Grid    *dist.Grid
	// Templates maps template name to its resolved per-dimension
	// distribution (bounds from the TEMPLATE directive).
	Templates map[string][]dist.DimDist
	// Types holds the resolved type of every analyzed expression.
	// Compilation consumes it and Types and Shapes are nil on the Info
	// of a compiled program (hir.Program.Info).
	Types map[ast.Expr]ast.BaseType
	// Shapes holds the shape of array-valued expressions (nil = scalar).
	Shapes map[ast.Expr]*Shape
	// Consts holds values of named constants.
	Consts map[string]Value
}

// TypeOf returns the resolved type of e (TUnknown if unanalyzed).
func (in *Info) TypeOf(e ast.Expr) ast.BaseType { return in.Types[e] }

// ShapeOf returns the shape of e; nil means scalar.
func (in *Info) ShapeOf(e ast.Expr) *Shape { return in.Shapes[e] }

// Sym returns the symbol for a name, or nil.
func (in *Info) Sym(name string) *Symbol { return in.Symbols[name] }

// ArrayMap returns the distribution map of array name, or nil.
func (in *Info) ArrayMap(name string) *dist.ArrayMap {
	if s := in.Symbols[name]; s != nil {
		return s.Map
	}
	return nil
}
