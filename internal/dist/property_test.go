package dist

import (
	"math/rand"
	"testing"
)

// randDist draws a random valid DimDist over each Kind, small enough to
// brute-force but varied enough to hit block remainders, single-element
// dims, more processors than elements, explicit BLOCK(n) sizes, and
// block-cyclic CYCLIC(k) chunks.
func randDist(rng *rand.Rand) DimDist {
	kind := Kind(rng.Intn(3))
	lo := rng.Intn(5) - 2 // bounds need not start at 1
	extent := 1 + rng.Intn(40)
	d := DimDist{Kind: kind, Lo: lo, Hi: lo + extent - 1, ProcDim: -1, NProc: 1}
	if kind != Collapsed {
		d.ProcDim = rng.Intn(2)
		d.NProc = 1 + rng.Intn(8)
		if kind == Block && rng.Intn(3) == 0 {
			// Explicit BLOCK(n): any n with n*NProc >= extent is legal.
			minBlk := ceilDiv(extent, d.NProc)
			d.Blk = minBlk + rng.Intn(3)
		}
		if kind == Cyclic && rng.Intn(2) == 0 {
			// CYCLIC(k): any positive chunk is legal (rounds wrap), and k
			// beyond the extent degenerates to everything on processor 0.
			d.Blk = 1 + rng.Intn(extent+2)
		}
	}
	return d
}

func TestPropertyRoundTripIdentity(t *testing.T) {
	// For every global index g: ToGlobal(Owner(g), ToLocal(g)) == g, the
	// owner is a valid processor coordinate, and the local offset lies
	// inside the owner's local allocation.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		d := randDist(rng)
		for g := d.Lo; g <= d.Hi; g++ {
			p := d.Owner(g)
			if p < 0 || p >= d.procCount() {
				t.Fatalf("%v: Owner(%d) = %d out of [0,%d)", d, g, p, d.procCount())
			}
			l := d.ToLocal(g)
			if l < 0 || l >= d.LocalSize(p) {
				t.Fatalf("%v: ToLocal(%d) = %d outside local size %d of p%d",
					d, g, l, d.LocalSize(p), p)
			}
			if back := d.ToGlobal(p, l); back != g {
				t.Fatalf("%v: ToGlobal(%d,%d) = %d, want %d", d, p, l, back, g)
			}
		}
	}
}

func TestPropertyOwnerMathMatchesOwner(t *testing.T) {
	// The executor's unchecked owner arithmetic agrees with Owner on
	// every in-bounds index of every kind.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		d := randDist(rng)
		om := d.OwnerMath()
		for g := d.Lo; g <= d.Hi; g++ {
			if got, want := om.Of(g), d.Owner(g); got != want {
				t.Fatalf("%v: OwnerMath.Of(%d) = %d, Owner = %d", d, g, got, want)
			}
		}
	}
}

func TestPropertyLocalSizesPartitionExtent(t *testing.T) {
	// Local sizes sum to the extent (every element owned exactly once),
	// none exceeds MaxLocalSize, and some processor attains the max.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		d := randDist(rng)
		sum, maxSeen := 0, 0
		for p := 0; p < d.procCount(); p++ {
			sz := d.LocalSize(p)
			if sz < 0 {
				t.Fatalf("%v: LocalSize(%d) = %d negative", d, p, sz)
			}
			if sz > d.MaxLocalSize() {
				t.Fatalf("%v: LocalSize(%d) = %d exceeds MaxLocalSize %d",
					d, p, sz, d.MaxLocalSize())
			}
			if sz > maxSeen {
				maxSeen = sz
			}
			sum += sz
		}
		if sum != d.Extent() {
			t.Fatalf("%v: local sizes sum to %d, want extent %d", d, sum, d.Extent())
		}
		if maxSeen != d.MaxLocalSize() {
			t.Fatalf("%v: max attained local size %d != MaxLocalSize %d",
				d, maxSeen, d.MaxLocalSize())
		}
	}
}

func TestPropertyOwnedRangeMatchesOwner(t *testing.T) {
	// For Block/Collapsed, OwnedRange(p) must contain exactly the global
	// indices with Owner(g) == p.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		d := randDist(rng)
		if d.Kind == Cyclic {
			if _, _, ok := d.OwnedRange(0); ok {
				t.Fatalf("%v: OwnedRange must report not-contiguous for CYCLIC", d)
			}
			continue
		}
		for p := 0; p < d.procCount(); p++ {
			lo, hi, ok := d.OwnedRange(p)
			if !ok {
				if d.LocalSize(p) != 0 {
					t.Fatalf("%v: OwnedRange(%d) not ok but LocalSize %d", d, p, d.LocalSize(p))
				}
				continue
			}
			if hi-lo+1 != d.LocalSize(p) {
				t.Fatalf("%v: OwnedRange(%d) = [%d,%d] disagrees with LocalSize %d",
					d, p, lo, hi, d.LocalSize(p))
			}
			for g := lo; g <= hi; g++ {
				if d.Owner(g) != p {
					t.Fatalf("%v: g=%d in OwnedRange(%d) but Owner = %d", d, g, p, d.Owner(g))
				}
			}
		}
	}
}

// bruteLoopCount counts iterations of lo:hi:step owned by p directly.
func bruteLoopCount(d DimDist, p, lo, hi, step int) int {
	n := 0
	if step > 0 {
		for g := lo; g <= hi; g += step {
			if g >= d.Lo && g <= d.Hi && d.Owner(g) == p {
				n++
			}
		}
	} else if step < 0 {
		for g := lo; g >= hi; g += step {
			if g >= d.Lo && g <= d.Hi && d.Owner(g) == p {
				n++
			}
		}
	}
	return n
}

func TestPropertyLoopCountOwnerComputes(t *testing.T) {
	// Owner-computes partitioning must cover each loop iteration exactly
	// once: per-processor LoopCounts match brute force, sum to the serial
	// trip count, and MaxLoopCount bounds (and is attained by) the most
	// loaded processor. This is the load-balance quantity the interpreter
	// charges (max-loaded processor under loose synchrony).
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		d := randDist(rng)
		// Random loop bounds straddling (and sometimes exceeding) the dim.
		lo := d.Lo + rng.Intn(d.Extent()+4) - 2
		hi := lo + rng.Intn(d.Extent()+4) - 2
		step := 1
		switch rng.Intn(4) {
		case 1:
			step = 1 + rng.Intn(3)
		case 2:
			step = -1 - rng.Intn(3)
			lo, hi = hi, lo
		}

		serial := 0
		if step > 0 {
			for g := lo; g <= hi; g += step {
				if g >= d.Lo && g <= d.Hi {
					serial++
				}
			}
		} else {
			for g := lo; g >= hi; g += step {
				if g >= d.Lo && g <= d.Hi {
					serial++
				}
			}
		}

		sum, maxSeen := 0, 0
		for p := 0; p < d.procCount(); p++ {
			got := d.LoopCount(p, lo, hi, step)
			want := bruteLoopCount(d, p, lo, hi, step)
			if got != want {
				t.Fatalf("%v: LoopCount(p=%d, %d:%d:%d) = %d, brute force %d",
					d, p, lo, hi, step, got, want)
			}
			if got > maxSeen {
				maxSeen = got
			}
			sum += got
		}
		if sum != serial {
			t.Fatalf("%v: loop %d:%d:%d iterations covered %d times, serial count %d",
				d, lo, hi, step, sum, serial)
		}
		if mx := d.MaxLoopCount(lo, hi, step); mx != maxSeen {
			t.Fatalf("%v: MaxLoopCount(%d:%d:%d) = %d, attained max %d",
				d, lo, hi, step, mx, maxSeen)
		}
	}
}

func TestPropertyGridRankCoordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		ndim := 1 + rng.Intn(3)
		shape := make([]int, ndim)
		for i := range shape {
			shape[i] = 1 + rng.Intn(5)
		}
		g, err := NewGrid("P", shape...)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < g.Size(); r++ {
			c := g.Coords(r)
			if back := g.Rank(c); back != r {
				t.Fatalf("grid %v: Rank(Coords(%d)) = %d", shape, r, back)
			}
		}
	}
}
