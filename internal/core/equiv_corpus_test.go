package core_test

// Corpus leg of the tree-walker ↔ compiled-closure equivalence suite:
// where equiv_test.go exercises the fixed testdata programs, this file
// sweeps seeded generator output across all kernel families, so every
// template shape (FORALL masks, block-cyclic mappings, CSHIFT chains,
// triangular loops) is diffed bit-for-bit between the two engines.
//
// It lives in the external test package: internal/corpus imports
// internal/core, so the corpus-driven test must sit outside package
// core to avoid the import cycle. Everything it needs is exported.

import (
	"context"
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/corpus"
)

// TestEquivCorpusPrograms asserts InterpretTree and Compiled.Evaluate produce
// byte-identical reports for generator output across seeds and families.
func TestEquivCorpusPrograms(t *testing.T) {
	seeds := []int64{1, 42}
	n := 36
	if testing.Short() {
		seeds = seeds[:1]
		n = 12
	}
	for _, seed := range seeds {
		for _, p := range corpus.Generate(seed, n) {
			prog, err := compiler.Compile(p.Source)
			if err != nil {
				t.Fatalf("%s (seed %d): compile: %v", p.Name, seed, err)
			}
			opts := core.DefaultOptions()
			opts.MaskDensity = p.MaskDensity()

			itTree, err := core.NewContext(context.Background(), prog, nil, opts)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			treeRep, err := itTree.InterpretTree()
			if err != nil {
				t.Fatalf("%s: tree walker: %v", p.Name, err)
			}
			cp, err := core.CompilePrediction(context.Background(), prog, nil, opts)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			compRep, err := cp.Evaluate(context.Background())
			if err != nil {
				t.Fatalf("%s: compiled closures: %v", p.Name, err)
			}
			if d := core.DiffReports(treeRep, compRep); d != "" {
				t.Errorf("%s (seed %d, %s): tree/compiled divergence: %s",
					p.Name, seed, p.Family, d)
			}
		}
	}
}
