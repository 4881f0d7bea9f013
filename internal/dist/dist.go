// Package dist implements the HPF data-mapping algebra used by the
// partitioning step of compilation (§4.1 step 2): processor arrangements,
// BLOCK / CYCLIC / collapsed dimension distributions, and the global↔local
// index transformations needed for owner-computes partitioning.
package dist

import (
	"fmt"
	"strings"
)

// Grid is a rectilinear arrangement of abstract processors, as declared by
// a PROCESSORS directive. Ranks are row-major over the shape.
type Grid struct {
	Name  string
	Shape []int
}

// NewGrid builds a grid, validating that all extents are positive.
func NewGrid(name string, shape ...int) (*Grid, error) {
	if len(shape) == 0 {
		return nil, fmt.Errorf("dist: processor grid %s has no dimensions", name)
	}
	for i, e := range shape {
		if e <= 0 {
			return nil, fmt.Errorf("dist: processor grid %s dimension %d extent %d must be positive", name, i+1, e)
		}
	}
	return &Grid{Name: name, Shape: append([]int(nil), shape...)}, nil
}

// Size returns the total number of processors in the grid.
func (g *Grid) Size() int {
	n := 1
	for _, e := range g.Shape {
		n *= e
	}
	return n
}

// Rank converts grid coordinates (0-based) to a linear rank (row-major).
func (g *Grid) Rank(coords []int) int {
	if len(coords) != len(g.Shape) {
		panic(fmt.Sprintf("dist: coords rank %d != grid rank %d", len(coords), len(g.Shape)))
	}
	r := 0
	for i, c := range coords {
		if c < 0 || c >= g.Shape[i] {
			panic(fmt.Sprintf("dist: coordinate %d out of range [0,%d)", c, g.Shape[i]))
		}
		r = r*g.Shape[i] + c
	}
	return r
}

// Coords converts a linear rank to grid coordinates.
func (g *Grid) Coords(rank int) []int {
	if rank < 0 || rank >= g.Size() {
		panic(fmt.Sprintf("dist: rank %d out of range [0,%d)", rank, g.Size()))
	}
	coords := make([]int, len(g.Shape))
	for i := len(g.Shape) - 1; i >= 0; i-- {
		coords[i] = rank % g.Shape[i]
		rank /= g.Shape[i]
	}
	return coords
}

func (g *Grid) String() string {
	parts := make([]string, len(g.Shape))
	for i, e := range g.Shape {
		parts[i] = fmt.Sprint(e)
	}
	return fmt.Sprintf("%s(%s)", g.Name, strings.Join(parts, ","))
}

// Kind is the distribution format of one dimension.
type Kind int

const (
	Collapsed Kind = iota // '*': whole dimension on every owning processor
	Block                 // BLOCK: contiguous chunks of size ceil(N/P)
	Cyclic                // CYCLIC / CYCLIC(k): round-robin chunks of k elements (k=1 default)
)

func (k Kind) String() string {
	switch k {
	case Collapsed:
		return "*"
	case Block:
		return "BLOCK"
	case Cyclic:
		return "CYCLIC"
	}
	return "?"
}

// DimDist describes how one array/template dimension is mapped.
//
// A Collapsed dimension lives whole on each processor that owns the other
// dimensions (ProcDim is -1). Block and Cyclic dimensions are spread over
// grid dimension ProcDim with NProc processors.
type DimDist struct {
	Kind    Kind
	Lo, Hi  int // global index bounds (inclusive)
	ProcDim int // grid dimension this maps to; -1 for Collapsed
	NProc   int // extent of that grid dimension;  1 for Collapsed
	// Blk is an explicit chunk size. For Block it is the BLOCK(n) size
	// (0 selects the default ceil(extent/nproc); otherwise Blk*NProc >=
	// extent must hold). For Cyclic it is the CYCLIC(k) block-cyclic
	// chunk (0 or 1 is the default element-cyclic round-robin).
	Blk int
}

// Extent returns the global number of elements in the dimension.
func (d DimDist) Extent() int { return d.Hi - d.Lo + 1 }

// BlockSize returns the per-processor chunk size for Block distributions
// (ceil(extent/nproc)); it is the full extent for Collapsed and the
// CYCLIC(k) round-robin chunk for Cyclic (1 for plain element-cyclic).
func (d DimDist) BlockSize() int {
	switch d.Kind {
	case Collapsed:
		return d.Extent()
	case Block:
		if d.Blk > 0 {
			return d.Blk
		}
		return ceilDiv(d.Extent(), d.NProc)
	default:
		if d.Blk > 1 {
			return d.Blk
		}
		return 1
	}
}

// Owner returns the processor coordinate (within grid dimension ProcDim)
// owning global index g.
func (d DimDist) Owner(g int) int {
	d.check(g)
	switch d.Kind {
	case Collapsed:
		return 0
	case Block:
		return (g - d.Lo) / d.BlockSize()
	case Cyclic:
		return ((g - d.Lo) / d.BlockSize()) % d.NProc
	}
	panic("dist: bad kind")
}

// OwnerMath is Owner without the bounds check or the per-call kind
// dispatch, for hot loops that have already checked their index: the
// owner coordinate of global index g is (g-Lo)/BlockSize, reduced
// modulo NProc for CYCLIC.
type OwnerMath struct {
	lo, blk, nproc int // nproc 0: no wraparound (BLOCK, collapsed)
}

// OwnerMath returns the dimension's owner arithmetic.
func (d DimDist) OwnerMath() OwnerMath {
	o := OwnerMath{lo: d.Lo, blk: d.BlockSize()}
	if d.Kind == Cyclic {
		o.nproc = d.NProc
	}
	return o
}

// Of returns the owner coordinate of global index g, which must lie in
// the dimension's bounds.
func (o OwnerMath) Of(g int) int {
	q := (g - o.lo) / o.blk
	if o.nproc > 0 {
		q %= o.nproc
	}
	return q
}

// ToLocal converts a global index to the owner's local 0-based offset.
func (d DimDist) ToLocal(g int) int {
	d.check(g)
	switch d.Kind {
	case Collapsed:
		return g - d.Lo
	case Block:
		return (g - d.Lo) % d.BlockSize()
	case Cyclic:
		b := d.BlockSize()
		x := g - d.Lo
		return (x/(b*d.NProc))*b + x%b
	}
	panic("dist: bad kind")
}

// ToGlobal converts a processor coordinate and local offset back to the
// global index. It is the inverse of (Owner, ToLocal) for owned elements.
func (d DimDist) ToGlobal(p, l int) int {
	switch d.Kind {
	case Collapsed:
		return d.Lo + l
	case Block:
		return d.Lo + p*d.BlockSize() + l
	case Cyclic:
		b := d.BlockSize()
		return d.Lo + (l/b)*(b*d.NProc) + p*b + l%b
	}
	panic("dist: bad kind")
}

// LocalSize returns the number of elements of the dimension owned by
// processor coordinate p.
func (d DimDist) LocalSize(p int) int {
	switch d.Kind {
	case Collapsed:
		return d.Extent()
	case Block:
		b := d.BlockSize()
		lo := d.Lo + p*b
		hi := lo + b - 1
		if hi > d.Hi {
			hi = d.Hi
		}
		if lo > d.Hi {
			return 0
		}
		return hi - lo + 1
	case Cyclic:
		return cyclicCount(d.Extent(), d.BlockSize(), d.NProc, p)
	}
	panic("dist: bad kind")
}

// cyclicCount returns how many of the first n elements of a CYCLIC(b)
// dimension over nproc processors land on processor coordinate p: b per
// full round plus p's clipped share of the trailing partial round.
func cyclicCount(n, b, nproc, p int) int {
	if n <= 0 {
		return 0
	}
	period := b * nproc
	size := (n / period) * b
	rem := n%period - p*b
	if rem > b {
		rem = b
	}
	if rem > 0 {
		size += rem
	}
	return size
}

// MaxLocalSize returns the largest per-processor share (the share of the
// most loaded processor). The interpretation engine models loosely
// synchronous execution time with the maximum-loaded processor.
func (d DimDist) MaxLocalSize() int {
	switch d.Kind {
	case Collapsed:
		return d.Extent()
	case Block:
		return min(d.BlockSize(), d.Extent())
	case Cyclic:
		// Processor 0 always receives the first chunk of each round, so
		// it attains the maximum share.
		return cyclicCount(d.Extent(), d.BlockSize(), d.NProc, 0)
	}
	panic("dist: bad kind")
}

// OwnedRange returns the inclusive global range [lo,hi] owned by processor
// p for Block/Collapsed distributions. ok is false when p owns nothing.
// For Cyclic dimensions the owned set is not contiguous and ok is false.
func (d DimDist) OwnedRange(p int) (lo, hi int, ok bool) {
	switch d.Kind {
	case Collapsed:
		return d.Lo, d.Hi, true
	case Block:
		b := d.BlockSize()
		lo = d.Lo + p*b
		hi = lo + b - 1
		if hi > d.Hi {
			hi = d.Hi
		}
		if lo > d.Hi {
			return 0, 0, false
		}
		return lo, hi, true
	}
	return 0, 0, false
}

// LoopCount returns how many iterations of the global loop lo:hi:step fall
// on processor coordinate p (owner-computes partitioning of a parallel
// loop aligned with this dimension). Unit-stride loops use closed forms so
// that interpretation cost is independent of the problem size (the
// framework's cost-effectiveness property, §5.3).
func (d DimDist) LoopCount(p, lo, hi, step int) int {
	if step == 0 {
		return 0
	}
	if step == 1 {
		// Clip to the dimension bounds.
		if lo < d.Lo {
			lo = d.Lo
		}
		if hi > d.Hi {
			hi = d.Hi
		}
		if hi < lo {
			return 0
		}
		switch d.Kind {
		case Collapsed:
			if p != 0 {
				return 0
			}
			return hi - lo + 1
		case Block:
			oLo, oHi, ok := d.OwnedRange(p)
			if !ok {
				return 0
			}
			if lo > oLo {
				oLo = lo
			}
			if hi < oHi {
				oHi = hi
			}
			if oHi < oLo {
				return 0
			}
			return oHi - oLo + 1
		case Cyclic:
			// Count g in [lo,hi] with ((g-d.Lo)/blk) mod NProc == p.
			b := d.BlockSize()
			count := func(upTo int) int {
				// Number of g in [d.Lo, upTo] owned by p.
				return cyclicCount(upTo-d.Lo+1, b, d.NProc, p)
			}
			return count(hi) - count(lo-1)
		}
	}
	n := 0
	if step > 0 {
		for g := lo; g <= hi; g += step {
			if d.contains(g) && d.Owner(g) == p {
				n++
			}
		}
	} else {
		for g := lo; g >= hi; g += step {
			if d.contains(g) && d.Owner(g) == p {
				n++
			}
		}
	}
	return n
}

// MaxLoopCount returns the largest per-processor iteration count of the
// global loop lo:hi:step over this dimension.
func (d DimDist) MaxLoopCount(lo, hi, step int) int {
	maxN := 0
	for p := 0; p < d.procCount(); p++ {
		if n := d.LoopCount(p, lo, hi, step); n > maxN {
			maxN = n
		}
	}
	return maxN
}

func (d DimDist) procCount() int {
	if d.Kind == Collapsed {
		return 1
	}
	return d.NProc
}

func (d DimDist) contains(g int) bool { return g >= d.Lo && g <= d.Hi }

func (d DimDist) check(g int) {
	if !d.contains(g) {
		panic(fmt.Sprintf("dist: global index %d outside [%d,%d]", g, d.Lo, d.Hi))
	}
}

func (d DimDist) String() string {
	if d.Kind == Collapsed {
		return "*"
	}
	if d.Kind == Cyclic && d.Blk > 1 {
		return fmt.Sprintf("CYCLIC(%d)/p%d", d.Blk, d.ProcDim)
	}
	return fmt.Sprintf("%s/p%d", d.Kind, d.ProcDim)
}

// CyclicShiftRows returns how many of a processor's local elements along
// a CYCLIC(blk) dimension change hands under a shift by delta: min(delta,
// blk) boundary rows of each of its local chunks. Element-cyclic (blk 1)
// moves every local element, matching the historical model.
func CyclicShiftRows(local, blk, delta int) int {
	if blk <= 1 {
		return local
	}
	if delta > blk {
		delta = blk
	}
	rows := delta * ceilDiv(local, blk)
	if rows > local {
		rows = local
	}
	return rows
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
