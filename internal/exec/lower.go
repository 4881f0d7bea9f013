package exec

import (
	"fmt"
	"sort"
	"strings"

	"hpfperf/internal/ast"
	"hpfperf/internal/dist"
	"hpfperf/internal/hir"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/sem"
	"hpfperf/internal/sysmodel"
)

// program is the lowered form of one hir.Program on one machine
// configuration. RunContext builds it once and every timed run executes
// it read-only against its own frame.
type program struct {
	body []stmt
	// nodes is the processor count; coords holds rank r's grid
	// coordinates at coords[r*dims : (r+1)*dims] (row-major ranks).
	nodes, dims int
	coords      []int
	shape       []int
	rankStride  []int // rank distance between neighbouring coordinates per grid dimension
	// Slot counts per storage class of the frame.
	nints, nfloats, nbools, nvals int
	arrays                        []arrayInfo
	// npcs is the number of partition-context buffers a frame needs:
	// the unconstrained context, the guard scratch, and one per
	// partitioned loop.
	npcs int
}

// arrayInfo is the storage layout of one program array, Fortran
// column-major (first subscript varies fastest).
type arrayInfo struct {
	name    string
	typ     ast.BaseType
	lo, hi  []int
	strides []int
	size    int
}

// Partition-context buffers with fixed roles; partitioned loops number
// theirs from pcLoops.
const (
	pcFree = iota
	pcGuard
	pcLoops
)

// stmt is one lowered statement. run executes it under partition
// context pc (one coordinate per grid dimension, -1 = unconstrained);
// frame.exec has already recorded its line and counted the step.
type stmt struct {
	line int
	run  func(fr *frame, pc []int) error
}

// slot is where a scalar lives in the frame: a typed slot when every
// definition and read of the name agrees on one kind, otherwise (kDyn)
// a tagged val plus a "has been assigned" flag.
type slot struct {
	k   kind
	idx int
}

// lowerer builds a program from an hir.Program.
type lowerer struct {
	hp     *hir.Program
	mach   *ipsc.Machine
	P      *sysmodel.Processing
	prog   *program
	slots  map[string]slot
	arrays map[string]int
}

// lower builds the lowered program for hp on machines configured like
// mach. Statement costs are fixed here, once, under mach's cost models.
func lower(hp *hir.Program, mach *ipsc.Machine) *program {
	grid := hp.Info.Grid
	p := &program{nodes: grid.Size(), dims: len(grid.Shape), shape: grid.Shape, nints: zeroSlot + 1, npcs: pcLoops}
	for r := 0; r < p.nodes; r++ {
		p.coords = append(p.coords, grid.Coords(r)...)
	}
	p.rankStride = make([]int, p.dims)
	for d, stride := p.dims-1, 1; d >= 0; d-- {
		p.rankStride[d] = stride
		stride *= p.shape[d]
	}
	l := &lowerer{hp: hp, mach: mach, P: mach.Node().P, prog: p, arrays: map[string]int{}}
	names := make([]string, 0, len(hp.Info.Symbols))
	for name, sym := range hp.Info.Symbols {
		if sym.Kind == sem.SymArray {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		sym := hp.Info.Symbols[name]
		a := arrayInfo{name: name, typ: sym.Type, size: 1}
		for _, b := range sym.Bounds {
			a.lo = append(a.lo, b[0])
			a.hi = append(a.hi, b[1])
			a.strides = append(a.strides, a.size)
			a.size *= b[1] - b[0] + 1
		}
		l.arrays[name] = len(p.arrays)
		p.arrays = append(p.arrays, a)
	}
	l.assignSlots()
	p.body = l.stmts(hp.Body, costCtx{})
	return p
}

// assignSlots gives every scalar name a frame slot. A name gets a typed
// slot when all its definitions (assignments, loop indices, reduction
// and fetch targets) and all its typed reads agree on one kind; its
// zero value then is exactly what an unassigned read returns.
func (l *lowerer) assignSlots() {
	kinds := map[string]map[kind]bool{}
	note := func(name string, k kind) {
		if kinds[name] == nil {
			kinds[name] = map[kind]bool{}
		}
		kinds[name][k] = true
	}
	// Reads that convert their value on the spot (reduction sources)
	// work with any slot kind; they only need the name to have a slot.
	mention := func(name string) {
		if kinds[name] == nil {
			kinds[name] = map[kind]bool{}
		}
	}
	var walkE func(e hir.Expr)
	walkE = func(e hir.Expr) {
		switch x := e.(type) {
		case *hir.Ref:
			note(x.Name, kindOf(x.Typ))
		case *hir.Elem:
			for _, s := range x.Subs {
				walkE(s)
			}
		case *hir.Bin:
			walkE(x.X)
			walkE(x.Y)
		case *hir.Un:
			walkE(x.X)
		case *hir.Intr:
			for _, a := range x.Args {
				walkE(a)
			}
		}
	}
	walkEs := func(es []hir.Expr) {
		for _, e := range es {
			if e != nil {
				walkE(e)
			}
		}
	}
	var walk func(ss []hir.Stmt)
	walk = func(ss []hir.Stmt) {
		for _, s := range ss {
			switch x := s.(type) {
			case *hir.Assign:
				walkE(x.Rhs)
				switch lhs := x.Lhs.(type) {
				case *hir.ScalarLV:
					note(lhs.Name, kindOf(lhs.Typ))
				case *hir.ElemLV:
					walkEs(lhs.Subs)
				}
			case *hir.Loop:
				note(x.Var, kInt)
				walkEs([]hir.Expr{x.Lo, x.Hi, x.Step})
				walk(x.Body)
			case *hir.While:
				walkE(x.Cond)
				walk(x.Body)
			case *hir.If:
				walkE(x.Cond)
				walk(x.Then)
				walk(x.Else)
			case *hir.Reduce:
				mention(x.Src)
				note(x.Dst, kindOf(x.Typ))
				if x.LocSrc != "" {
					mention(x.LocSrc)
					note(x.LocDst, kInt)
				}
			case *hir.CShift:
				walkE(x.Shift)
			case *hir.EOShift:
				walkEs([]hir.Expr{x.Shift, x.Boundary})
			case *hir.FetchElem:
				walkEs(x.Subs)
				note(x.Dst, kindOf(x.Typ))
			case *hir.Print:
				walkEs(x.Args)
			}
		}
	}
	walk(l.hp.Body)
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	l.slots = make(map[string]slot, len(names))
	p := l.prog
	for _, name := range names {
		// A name only ever read with conversion (an unassigned
		// reduction source) can live in any typed slot.
		k := kFloat
		for kk := range kinds[name] {
			k = kk
		}
		if len(kinds[name]) > 1 {
			k = kDyn
		}
		s := slot{k: k}
		switch k {
		case kInt:
			s.idx, p.nints = p.nints, p.nints+1
		case kFloat:
			s.idx, p.nfloats = p.nfloats, p.nfloats+1
		case kBool:
			s.idx, p.nbools = p.nbools, p.nbools+1
		default:
			s.idx, p.nvals = p.nvals, p.nvals+1
		}
		l.slots[name] = s
	}
}

func (l *lowerer) slot(name string) slot {
	s, ok := l.slots[name]
	if !ok {
		// assignSlots walks every scalar position the lowering reads.
		panic("exec: scalar " + name + " has no slot")
	}
	return s
}

// store returns a closure assigning e, converted to type t, to scalar
// name.
func (l *lowerer) store(name string, t ast.BaseType, e expr) func(*frame) {
	s := l.slot(name)
	idx := s.idx
	c := convert(e, t)
	switch s.k {
	case kInt:
		i := c.i
		return func(fr *frame) { fr.ints[idx] = i(fr) }
	case kFloat:
		f := c.f
		return func(fr *frame) { fr.floats[idx] = f(fr) }
	case kBool:
		b := c.b
		return func(fr *frame) { fr.bools[idx] = b(fr) }
	}
	v := toV(c)
	return func(fr *frame) {
		fr.vals[idx] = v(fr)
		fr.set[idx] = true
	}
}

// readAny lowers a read of name whose value is converted right away to
// t: an unassigned name reads as zero whatever its slot kind.
func (l *lowerer) readAny(name string, t ast.BaseType) expr {
	switch l.slot(name).k {
	case kInt:
		t = ast.TInteger
	case kBool:
		t = ast.TLogical
	case kFloat:
		t = ast.TReal
	}
	return l.ref(name, t)
}

// index is one lowered subscript: an INTEGER slot plus a constant (the
// affine forms I, I+c, I-c and c, the last reading the always-zero
// slot zeroSlot) evaluated in place, or a general closure.
type index struct {
	slot int
	c    int64
	fn   func(*frame) int64
}

// zeroSlot is an INTEGER slot no statement writes.
const zeroSlot = 0

func (x *index) at(fr *frame) int {
	if x.fn != nil {
		return int(x.fn(fr))
	}
	return int(fr.ints[x.slot] + x.c)
}

// subscript lowers one subscript, folding affine forms.
func (l *lowerer) subscript(e hir.Expr) index {
	intSlot := func(e hir.Expr) (int, bool) {
		r, ok := e.(*hir.Ref)
		if !ok || r.Typ != ast.TInteger {
			return 0, false
		}
		s := l.slot(r.Name)
		return s.idx, s.k == kInt
	}
	intConst := func(e hir.Expr) (int64, bool) {
		c, ok := e.(*hir.Const)
		if !ok || c.Val.Type != ast.TInteger {
			return 0, false
		}
		return c.Val.I, true
	}
	if c, ok := intConst(e); ok {
		return index{slot: zeroSlot, c: c}
	}
	if s, ok := intSlot(e); ok {
		return index{slot: s}
	}
	if b, ok := e.(*hir.Bin); ok && b.Typ == ast.TInteger {
		if s, ok := intSlot(b.X); ok {
			if c, ok := intConst(b.Y); ok {
				switch b.Op {
				case hir.OpAdd:
					return index{slot: s, c: c}
				case hir.OpSub:
					return index{slot: s, c: -c}
				}
			}
		}
		if c, ok := intConst(b.X); ok && b.Op == hir.OpAdd {
			if s, ok := intSlot(b.Y); ok {
				return index{slot: s, c: c}
			}
		}
	}
	return index{fn: toI(l.expr(e))}
}

// elemRef is a lowered element address: subscripts plus the array's
// bounds and strides.
type elemRef struct {
	name        string
	subs        []index
	lo, hi      []int
	strides     []int
	distributed []ownerDim // the array's distributed dimensions
}

// ownerDim is one distributed dimension of an array: its owner
// coordinate (on grid dimension procDim) follows from the global index
// by block/cyclic arithmetic.
type ownerDim struct {
	dim, procDim int
	owner        dist.OwnerMath
}

// maxRank bounds the subscripts buffered on the stack per element
// access; Fortran arrays have at most seven dimensions.
const maxRank = 7

func (l *lowerer) elemRef(a int, subs []hir.Expr) *elemRef {
	info := &l.prog.arrays[a]
	r := &elemRef{name: info.name, lo: info.lo, hi: info.hi, strides: info.strides}
	for _, s := range subs {
		r.subs = append(r.subs, l.subscript(s))
	}
	if m := l.hp.Info.ArrayMap(info.name); m != nil && !m.Replicated {
		for d, dd := range m.Dims {
			if dd.Kind != dist.Collapsed {
				r.distributed = append(r.distributed, ownerDim{dim: d, procDim: dd.ProcDim, owner: dd.OwnerMath()})
			}
		}
	}
	return r
}

// locate evaluates every subscript, then bounds-checks them in order
// and returns the linear offset. The global index is left in g.
func (r *elemRef) locate(fr *frame, g []int) (int, bool) {
	if len(r.subs) == 2 {
		g0, g1 := r.subs[0].at(fr), r.subs[1].at(fr)
		g[0], g[1] = g0, g1
		if g0 < r.lo[0] || g0 > r.hi[0] {
			fr.failBounds(1, r.name, g0, r.lo[0], r.hi[0])
			return 0, false
		}
		if g1 < r.lo[1] || g1 > r.hi[1] {
			fr.failBounds(2, r.name, g1, r.lo[1], r.hi[1])
			return 0, false
		}
		return g0 - r.lo[0] + (g1-r.lo[1])*r.strides[1], true
	}
	for d := range r.subs {
		g[d] = r.subs[d].at(fr)
	}
	off := 0
	for d := range r.subs {
		v := g[d]
		if v < r.lo[d] || v > r.hi[d] {
			fr.failBounds(d+1, r.name, v, r.lo[d], r.hi[d])
			return 0, false
		}
		off += (v - r.lo[d]) * r.strides[d]
	}
	return off, true
}

// idxBuf is stack space for one element's global index.
type idxBuf [maxRank]int

// buf returns room for the element's global index: b itself unless the
// array has more than maxRank dimensions.
func (r *elemRef) buf(b *idxBuf) []int {
	if len(r.subs) > maxRank {
		return make([]int, len(r.subs))
	}
	return b[:]
}

// ownerContext narrows pc to the ranks owning element g: each
// distributed dimension pins its grid coordinate to the element's
// owner. ok is false when pc already excludes every owner.
func (r *elemRef) ownerContext(pc, out, g []int) bool {
	copy(out, pc)
	for _, od := range r.distributed {
		c := od.owner.Of(g[od.dim])
		if out[od.procDim] >= 0 && out[od.procDim] != c {
			return false
		}
		out[od.procDim] = c
	}
	return true
}

func typeName(x any) string { return fmt.Sprintf("%T", x) }

// stmts lowers a statement list.
func (l *lowerer) stmts(ss []hir.Stmt, ctx costCtx) []stmt {
	out := make([]stmt, len(ss))
	for i, s := range ss {
		out[i] = stmt{line: s.Line(), run: l.stmt(s, ctx)}
	}
	return out
}

func (l *lowerer) stmt(s hir.Stmt, ctx costCtx) func(*frame, []int) error {
	switch x := s.(type) {
	case *hir.Assign:
		return l.assign(x, ctx)
	case *hir.Loop:
		return l.loop(x, ctx)
	case *hir.While:
		cost := l.exprCycles(x.Cond, ctx) + l.P.BranchCycles
		cond := toB(l.expr(x.Cond))
		body := l.stmts(x.Body, ctx)
		return func(fr *frame, pc []int) error {
			for iter := 0; ; iter++ {
				if iter > 100_000_000 {
					return fr.errorf("DO WHILE exceeded 1e8 iterations")
				}
				if err := fr.tick(); err != nil {
					return err
				}
				fr.charge(pc, cost)
				c := cond(fr)
				if fr.err != nil {
					return fr.err
				}
				if !c {
					return nil
				}
				if err := fr.exec(body, pc); err != nil {
					return err
				}
			}
		}
	case *hir.If:
		cost := l.exprCycles(x.Cond, ctx) + l.P.BranchCycles
		cond := toB(l.expr(x.Cond))
		then, els := l.stmts(x.Then, ctx), l.stmts(x.Else, ctx)
		return func(fr *frame, pc []int) error {
			fr.charge(pc, cost)
			c := cond(fr)
			if fr.err != nil {
				return fr.err
			}
			if c {
				return fr.exec(then, pc)
			}
			return fr.exec(els, pc)
		}
	case *hir.Reduce:
		return l.reduce(x)
	case *hir.Shift:
		return l.shift(x)
	case *hir.AllGather:
		sym := l.hp.Info.Sym(x.Array)
		bytes := make([]int, l.prog.nodes)
		for r := range bytes {
			bytes[r] = sym.Map.LocalCount(r) * sym.Type.Bytes()
		}
		localBytes := func(rank int) int { return bytes[rank] }
		return func(fr *frame, _ []int) error {
			fr.mach.AllGatherV(localBytes)
			return nil
		}
	case *hir.CShift:
		return l.cshift(x.Dst, x.Src, x.Dim, x.Shift, nil, true, l.exprCycles(x.Shift, ctx))
	case *hir.EOShift:
		cost := l.exprCycles(x.Shift, ctx)
		if x.Boundary != nil {
			cost += l.exprCycles(x.Boundary, ctx)
		}
		return l.cshift(x.Dst, x.Src, x.Dim, x.Shift, x.Boundary, false, cost)
	case *hir.FetchElem:
		return l.fetch(x, ctx)
	case *hir.Print:
		return l.print(x, ctx)
	}
	msg := "unsupported statement " + typeName(s)
	return func(fr *frame, _ []int) error { return fr.errorf("%s", msg) }
}

func (l *lowerer) assign(x *hir.Assign, ctx costCtx) func(*frame, []int) error {
	var storeScale float64
	ctx.missScale, storeScale = l.groupMissScale(x)
	cost := l.exprCycles(x.Rhs, ctx) + l.P.StartupStatueCycles
	rhs := l.expr(x.Rhs)
	switch lhs := x.Lhs.(type) {
	case *hir.ScalarLV:
		cost += l.mach.Node().M.StoreCycles
		set := l.store(lhs.Name, lhs.Typ, rhs)
		return func(fr *frame, pc []int) error {
			set(fr)
			if fr.err != nil {
				return fr.err
			}
			fr.charge(pc, cost)
			return nil
		}
	case *hir.ElemLV:
		for _, sub := range lhs.Subs {
			cost += l.exprCycles(sub, ctx) + l.P.IntOpCycles
		}
		cls := l.accessClass(lhs.Subs, false, ctx)
		cost += l.mach.MemAccessCyclesScaled(true, cls, ctx.footprint, lhs.Typ.Bytes(), storeScale)
		cost += l.P.IndexCycles
		a, ok := l.arrays[lhs.Array]
		if !ok {
			msg := "array " + lhs.Array + " has no storage"
			rv := toV(rhs)
			return func(fr *frame, _ []int) error {
				rv(fr)
				if fr.err != nil {
					return fr.err
				}
				return fr.errorf("%s", msg)
			}
		}
		value := storeValue(rhs, l.prog.arrays[a].typ)
		ref := l.elemRef(a, lhs.Subs)
		guarded, guard := x.Guard, l.P.GuardCycles
		return func(fr *frame, pc []int) error {
			v := value(fr)
			if fr.err != nil {
				return fr.err
			}
			var b idxBuf
			g := ref.buf(&b)
			off, ok := ref.locate(fr, g)
			if !ok {
				return fr.err
			}
			fr.arrays[a][off] = v
			if !guarded {
				fr.charge(pc, cost)
				return nil
			}
			// Every rank in pc pays the ownership test; the owners of
			// the element (within pc) pay the store.
			fr.charge(pc, guard)
			if owners := fr.pcs[pcGuard]; ref.ownerContext(pc, owners, g) {
				fr.computeOn(owners, cost)
			}
			return nil
		}
	}
	return func(fr *frame, _ []int) error { return nil }
}

// storeValue converts e to the float64 representation of an element of
// type t.
func storeValue(e expr, t ast.BaseType) func(*frame) float64 {
	switch kindOf(t) {
	case kInt:
		i := toI(e)
		return func(fr *frame) float64 { return float64(i(fr)) }
	case kBool:
		b := toB(e)
		return func(fr *frame) float64 {
			if b(fr) {
				return 1
			}
			return 0
		}
	}
	return toF(e)
}

func (l *lowerer) loop(x *hir.Loop, ctx costCtx) func(*frame, []int) error {
	cost := l.exprCycles(x.Lo, ctx) + l.exprCycles(x.Hi, ctx) + l.exprCycles(x.Step, ctx)
	inner := costCtx{innerVar: x.Var, footprint: ctx.footprint}
	if ctx.footprint == 0 {
		inner.footprint = l.nestFootprint(x)
	}
	lo, hi, step := toI(l.expr(x.Lo)), toI(l.expr(x.Hi)), toI(l.expr(x.Step))
	body := l.stmts(x.Body, inner)
	overhead := l.P.LoopOverheadCycles
	v := l.slot(x.Var)
	setVar := func(fr *frame, i int64) {
		if v.k == kInt {
			fr.ints[v.idx] = i
			return
		}
		fr.vals[v.idx] = intV(i)
		fr.set[v.idx] = true
	}
	// bounds evaluates lo, hi and step in order, stopping at the first
	// error, and rejects a zero step.
	bounds := func(fr *frame) (l, h, st int64, err error) {
		if l = lo(fr); fr.err != nil {
			return 0, 0, 0, fr.err
		}
		if h = hi(fr); fr.err != nil {
			return 0, 0, 0, fr.err
		}
		if st = step(fr); fr.err != nil {
			return 0, 0, 0, fr.err
		}
		if st == 0 {
			return 0, 0, 0, fr.errorf("loop %s has zero step", x.Var)
		}
		return l, h, st, nil
	}
	if x.Par == nil {
		return func(fr *frame, pc []int) error {
			fr.charge(pc, cost)
			l, h, st, err := bounds(fr)
			if err != nil {
				return err
			}
			for i := l; (st > 0 && i <= h) || (st < 0 && i >= h); i += st {
				if err := fr.tick(); err != nil {
					return err
				}
				setVar(fr, i)
				fr.charge(pc, overhead)
				if err := fr.exec(body, pc); err != nil {
					return err
				}
			}
			return nil
		}
	}
	// Owner-computes partitioning: iteration i runs on the ranks owning
	// element i+Offset of the partitioning dimension. The loop keeps the
	// global iteration order (the order of Compute calls fixes the float
	// bits of every clock) and narrows its own copy of the context.
	m := l.hp.Info.ArrayMap(x.Par.Array)
	if m == nil {
		return func(fr *frame, pc []int) error {
			fr.charge(pc, cost)
			if _, _, _, err := bounds(fr); err != nil {
				return err
			}
			return fr.errorf("partitioned loop references unmapped array %s", x.Par.Array)
		}
	}
	dd := m.Dims[x.Par.Dim]
	pd, off, owner := dd.ProcDim, x.Par.Offset, dd.OwnerMath()
	buf := l.prog.npcs
	l.prog.npcs++
	return func(fr *frame, pc []int) error {
		fr.charge(pc, cost)
		l, h, st, err := bounds(fr)
		if err != nil {
			return err
		}
		inner := fr.pcs[buf]
		copy(inner, pc)
		for i := l; (st > 0 && i <= h) || (st < 0 && i >= h); i += st {
			if err := fr.tick(); err != nil {
				return err
			}
			g := int(i) + off
			if g < dd.Lo || g > dd.Hi {
				return fr.errorf("partitioned index %d outside dimension [%d,%d] of %s", g, dd.Lo, dd.Hi, x.Par.Array)
			}
			if pd >= 0 {
				inner[pd] = owner.Of(g)
			}
			setVar(fr, i)
			fr.charge(inner, overhead)
			if err := fr.exec(body, inner); err != nil {
				return err
			}
		}
		return nil
	}
}

func (l *lowerer) reduce(x *hir.Reduce) func(*frame, []int) error {
	const cost = 12 // local combine bookkeeping; the network cost dominates
	setDst := l.store(x.Dst, x.Typ, l.readAny(x.Src, x.Typ))
	bytes := 8
	setLoc := func(*frame) {}
	if x.LocSrc != "" {
		setLoc = l.store(x.LocDst, ast.TInteger, l.readAny(x.LocSrc, ast.TInteger))
		bytes = 16
	}
	return func(fr *frame, _ []int) error {
		setDst(fr)
		setLoc(fr)
		fr.mach.AllReduce(bytes)
		fr.charge(fr.pcs[pcFree], cost)
		return nil
	}
}

// stripBytes computes the per-rank halo volume of a shift of array m
// along dimension dim by delta: the number of boundary elements
// exchanged with the neighbour, times the local extent of every other
// dimension. shape is the rank's local shape.
func stripBytes(m *dist.ArrayMap, shape []int, elemBytes, dim, delta int) int {
	if delta < 0 {
		delta = -delta
	}
	dd := m.Dims[dim]
	rows := delta
	switch dd.Kind {
	case dist.Block:
		if rows > dd.BlockSize() {
			rows = dd.BlockSize()
		}
	case dist.Cyclic:
		rows = dist.CyclicShiftRows(shape[dim], dd.BlockSize(), delta)
	}
	vol := rows
	for d, e := range shape {
		if d != dim {
			vol *= e
		}
	}
	return vol * elemBytes
}

// neighbours returns, per rank, the rank one step along grid dimension
// pd in direction dir: wrapped around when circular, else -1 past the
// boundary; -1 also when wrapping leads back to the rank itself.
func (l *lowerer) neighbours(pd, dir int, circular bool) []int {
	p := l.prog
	out := make([]int, p.nodes)
	c := make([]int, p.dims)
	for r := range out {
		copy(c, p.coords[r*p.dims:(r+1)*p.dims])
		c[pd] += dir
		n := p.shape[pd]
		if circular {
			c[pd] = ((c[pd] % n) + n) % n
		} else if c[pd] < 0 || c[pd] >= n {
			out[r] = -1
			continue
		}
		if out[r] = p.rank(c); out[r] == r {
			out[r] = -1
		}
	}
	return out
}

func (p *program) rank(c []int) int {
	r := 0
	for d, x := range c {
		r += x * p.rankStride[d]
	}
	return r
}

func (l *lowerer) localShapes(m *dist.ArrayMap) [][]int {
	shapes := make([][]int, l.prog.nodes)
	for r := range shapes {
		shapes[r] = m.LocalShape(r)
	}
	return shapes
}

func (l *lowerer) shift(x *hir.Shift) func(*frame, []int) error {
	sym := l.hp.Info.Sym(x.Array)
	m := sym.Map
	dd := m.Dims[x.Dim]
	pd := dd.ProcDim
	if pd < 0 || dd.NProc == 1 {
		return func(*frame, []int) error { return nil }
	}
	dir := 1
	if x.Offset < 0 {
		dir = -1
	}
	shapes := l.localShapes(m)
	strips := make([]int, l.prog.nodes)
	for r := range strips {
		strips[r] = stripBytes(m, shapes[r], sym.Type.Bytes(), x.Dim, x.Offset)
	}
	partners := l.neighbours(pd, dir, false)
	bytes := func(rank int) int { return strips[rank] }
	partner := func(rank int) int { return partners[rank] }
	return func(fr *frame, _ []int) error {
		fr.mach.ShiftExchange(bytes, partner)
		return nil
	}
}

// cshift lowers CSHIFT (circular) and EOSHIFT/TSHIFT: the functional
// copy, the boundary exchange with the neighbour in the shift direction
// and the local data movement.
func (l *lowerer) cshift(dstName, srcName string, dim int, shiftE, boundary hir.Expr, circular bool, cost float64) func(*frame, []int) error {
	dst, okDst := l.arrays[dstName]
	src, okSrc := l.arrays[srcName]
	shiftV := toI(l.expr(shiftE))
	var bound func(*frame) float64
	if boundary != nil {
		bound = toF(l.expr(boundary))
	}
	if !okDst || !okSrc {
		name := dstName
		if okDst {
			name = srcName
		}
		return func(fr *frame, _ []int) error { return fr.errorf("array %s has no storage", name) }
	}
	p := l.prog
	di, si := &p.arrays[dst], &p.arrays[src]
	sym := l.hp.Info.Sym(srcName)
	m := sym.Map
	exchange := m != nil && !m.Replicated && dim < len(m.Dims) && m.Dims[dim].ProcDim >= 0 && m.Dims[dim].NProc > 1
	var shapes [][]int
	var fwd, back []int
	if exchange {
		pd := m.Dims[dim].ProcDim
		shapes = l.localShapes(m)
		fwd = l.neighbours(pd, 1, circular)
		back = l.neighbours(pd, -1, circular)
	}
	copyCycles := make([]float64, p.nodes)
	M := l.mach.Node().M
	perElem := M.LoadCycles + M.StoreCycles + 2
	for r := range copyCycles {
		local := si.size
		if m != nil && !m.Replicated {
			local = m.LocalCount(r)
		}
		copyCycles[r] = float64(local) * perElem
	}
	return func(fr *frame, _ []int) error {
		shift := int(shiftV(fr))
		if fr.err != nil {
			return fr.err
		}
		bval := 0.0
		if bound != nil {
			if bval = bound(fr); fr.err != nil {
				return fr.err
			}
		}
		if err := shiftCopy(fr, di, si, fr.arrays[dst], fr.arrays[src], dim, shift, bval, circular); err != nil {
			return err
		}
		if exchange {
			partners := fwd
			if shift < 0 {
				partners = back
			}
			fr.mach.ShiftExchange(
				func(rank int) int { return stripBytes(m, shapes[rank], sym.Type.Bytes(), dim, shift) },
				func(rank int) int { return partners[rank] },
			)
		}
		for r, c := range copyCycles {
			fr.mach.Compute(r, c)
		}
		fr.charge(fr.pcs[pcFree], cost)
		return nil
	}
}

// shiftCopy sets dst(..., i, ...) = src(..., i+shift, ...) along dim,
// wrapping around when circular and filling with bval otherwise.
func shiftCopy(fr *frame, di, si *arrayInfo, dst, src []float64, dim, shift int, bval float64, circular bool) error {
	rank := len(si.lo)
	var ibuf, sbuf [maxRank]int
	idx, srcIdx := ibuf[:rank], sbuf[:rank]
	if rank > maxRank {
		idx, srcIdx = make([]int, rank), make([]int, rank)
	}
	copy(idx, si.lo)
	offset := func(a *arrayInfo, g []int) (int, error) {
		off := 0
		for d, v := range g {
			if v < a.lo[d] || v > a.hi[d] {
				return 0, fr.errorf("subscript %d of %s is %d, outside [%d,%d]", d+1, a.name, v, a.lo[d], a.hi[d])
			}
			off += (v - a.lo[d]) * a.strides[d]
		}
		return off, nil
	}
	lo := si.lo[dim]
	n := si.hi[dim] - lo + 1
	for k := 0; k < si.size; k++ {
		copy(srcIdx, idx)
		j := idx[dim] - lo + shift
		inRange := true
		if circular {
			j = ((j % n) + n) % n
		} else if j < 0 || j >= n {
			inRange = false
		}
		v := bval
		if inRange {
			srcIdx[dim] = lo + j
			off, err := offset(si, srcIdx)
			if err != nil {
				return err
			}
			v = src[off]
		}
		off, err := offset(di, idx)
		if err != nil {
			return err
		}
		dst[off] = v
		// Advance the index vector (column-major order).
		for d := 0; d < rank; d++ {
			idx[d]++
			if idx[d] <= si.hi[d] {
				break
			}
			idx[d] = si.lo[d]
		}
	}
	return nil
}

func (l *lowerer) fetch(x *hir.FetchElem, ctx costCtx) func(*frame, []int) error {
	cost := 0.0
	for _, sub := range x.Subs {
		cost += l.exprCycles(sub, ctx)
	}
	a, ok := l.arrays[x.Array]
	if !ok {
		msg := "array " + x.Array + " has no storage"
		return func(fr *frame, _ []int) error { return fr.errorf("%s", msg) }
	}
	ref := l.elemRef(a, x.Subs)
	// The located element lands in fr.fetched; the store reads it back
	// with the array's storage kind and converts it to the target type.
	set := l.store(x.Dst, x.Typ, loadAs(l.prog.arrays[a].typ, func(fr *frame) float64 { return fr.fetched }))
	p := l.prog
	bytes := x.Typ.Bytes()
	return func(fr *frame, pc []int) error {
		var b idxBuf
		g := ref.buf(&b)
		off, ok := ref.locate(fr, g)
		if !ok {
			return fr.err
		}
		fr.fetched = fr.arrays[a][off]
		set(fr)
		// The lowest-rank owner broadcasts: distributed dimensions pin
		// their grid coordinate, every other coordinate is 0 (a
		// replicated array's lowest owner is rank 0).
		owner := 0
		for _, od := range ref.distributed {
			owner += od.owner.Of(g[od.dim]) * p.rankStride[od.procDim]
		}
		fr.mach.FetchBroadcast(owner, bytes)
		fr.charge(pc, cost)
		return nil
	}
}

func (l *lowerer) print(x *hir.Print, ctx costCtx) func(*frame, []int) error {
	cost := 0.0
	for _, a := range x.Args {
		cost += l.exprCycles(a, ctx)
	}
	var args []func(*frame) val
	for _, a := range x.Args {
		if c, ok := a.(*hir.Const); ok && c.Val.Type == ast.TCharacter {
			continue
		}
		args = append(args, toV(l.expr(a)))
	}
	hostBytes := 16 * len(x.Args)
	return func(fr *frame, pc []int) error {
		parts := make([]string, 0, len(args))
		for _, a := range args {
			v := a(fr)
			if fr.err != nil {
				return fr.err
			}
			parts = append(parts, v.String())
		}
		fr.printed = append(fr.printed, strings.Join(parts, " "))
		fr.charge(pc, cost)
		fr.mach.HostIO(hostBytes)
		return nil
	}
}
