package hpfperf_test

// Bit-identity oracle for the simulated executor. Every "measured" time
// in Table 2 and the figures comes from internal/exec; this test pins,
// per program, the exact float bits of the measured, per-run and
// per-node times together with every simulator counter, the executed
// statement count and the printed output. An executor change that is
// meant to be a pure speedup must pass it without -update. Regenerate
// (only for a deliberate timing-model change) with:
//
//	go test -run TestExecDigests -update
//
// and review the diff.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/corpus"
	"hpfperf/internal/exec"
	"hpfperf/internal/ipsc"
	"hpfperf/internal/suite"
)

// digestPoint is one program the oracle executes.
type digestPoint struct {
	label string
	src   string
}

// digestPoints lists the Table 2 quick grid (every suite program at its
// two smallest sizes on 1 and 4 processors), the Figure 8 points (the
// three Laplace mappings at every Figure 8 size on 4 processors) and a
// seeded 60-program corpus slice (ten programs of each family).
func digestPoints(t *testing.T) []digestPoint {
	t.Helper()
	var pts []digestPoint
	for _, p := range suite.All() {
		sizes := p.Sizes[:min(2, len(p.Sizes))]
		for _, n := range sizes {
			for _, np := range p.Procs {
				if np == 1 || np == 4 {
					pts = append(pts, digestPoint{fmt.Sprintf("table2/%s/n=%d/p=%d", p.Name, n, np), p.Source(n, np)})
				}
			}
		}
	}
	for _, p := range []*suite.Program{suite.LaplaceBB(), suite.LaplaceBX(), suite.LaplaceXB()} {
		for _, n := range []int{16, 64, 128, 256} {
			pts = append(pts, digestPoint{fmt.Sprintf("fig8/%s/n=%d/p=4", p.Name, n), p.Source(n, 4)})
		}
	}
	families := map[corpus.Family]int{}
	cyclicK, independent := false, false
	for _, p := range corpus.Generate(13, 60) {
		families[p.Family]++
		if strings.Contains(p.Dist, "CYCLIC(") {
			cyclicK = true
		}
		if p.Indep != 0 {
			independent = true
		}
		pts = append(pts, digestPoint{"corpus/" + p.Name, p.Source})
	}
	if len(families) != len(corpus.Families()) || !cyclicK || !independent {
		t.Fatalf("corpus slice lacks coverage: families %v, CYCLIC(k) %t, INDEPENDENT %t", families, cyclicK, independent)
	}
	return pts
}

// execDigest renders one execution result with every float as its
// IEEE-754 bit pattern.
func execDigest(label string, res *exec.Result) string {
	bits := func(fs []float64) string {
		parts := make([]string, len(fs))
		for i, f := range fs {
			parts[i] = fmt.Sprintf("%016x", math.Float64bits(f))
		}
		return strings.Join(parts, ",")
	}
	st := res.Stats
	return fmt.Sprintf("%s measured=%016x runs=%s nodes=%s msgs=%d bytes=%d coll=%d compute=%016x wait=%016x steps=%d printed=%q\n",
		label, math.Float64bits(res.MeasuredUS), bits(res.RunsUS), bits(res.PerNodeUS),
		st.Messages, st.BytesMoved, st.Collectives,
		math.Float64bits(st.ComputeUS), math.Float64bits(st.CommWaitUS),
		res.Steps, res.Printed)
}

// TestExecDigests executes every oracle program with three perturbed
// timed runs (amplitude 0.01, the Table 2 sweep's setting) and compares
// the digests with testdata/golden/exec_digests.txt.
func TestExecDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("executes ~150 programs; skipped in -short")
	}
	var out strings.Builder
	for _, pt := range digestPoints(t) {
		prog, err := compiler.Compile(pt.src)
		if err != nil {
			t.Fatalf("%s: compile: %v", pt.label, err)
		}
		cfg := ipsc.DefaultConfig(prog.Info.Grid.Size())
		cfg.PerturbAmp = 0.01
		m, err := ipsc.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pt.label, err)
		}
		res, err := exec.RunContext(context.Background(), prog, m, exec.Options{Runs: 3})
		if err != nil {
			t.Fatalf("%s: run: %v", pt.label, err)
		}
		out.WriteString(execDigest(pt.label, res))
	}
	checkGolden(t, "exec_digests.txt", []byte(out.String()))
}
