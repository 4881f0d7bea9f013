package sweep_test

import (
	"context"
	"runtime"
	"testing"

	"hpfperf/internal/compiler"
	"hpfperf/internal/core"
	"hpfperf/internal/corpus"
	"hpfperf/internal/sweep"
)

// retainedRatio is the ratio TestRetainedHeapRatio measured when report
// misses stopped retaining compile-only type maps, a private machine
// model per form and first-evaluation memo logs (linux/amd64, go1.24,
// 2-vCPU Xeon; the code before that measured 2.32). The gate fails past
// retainedRatio plus 20%.
const retainedRatio = 1.90

// retainedPrograms is the corpus size of the gate.
const retainedPrograms = 120

// TestRetainedHeapRatio bounds what the cache keeps per report miss.
// It caches the same corpus programs twice, once as compiled programs
// only and once as whole Interpret misses (compiled program, compiled
// prediction form and report), and compares the heap each set retains.
// Both halves run in one process, so the ratio does not depend on the
// host's speed or the allocator's state between runs.
func TestRetainedHeapRatio(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("heap measurement; skipped under -short and -race")
	}
	progs := corpus.Generate(7, retainedPrograms)
	srcs := make([]string, len(progs))
	for i, p := range progs {
		srcs[i] = p.Source
	}
	ctx := context.Background()
	opts := core.DefaultOptions()
	// Warm the process-wide state (machine models, calibrated libraries)
	// so neither half pays for it.
	func() {
		warm := sweep.NewCacheSize(len(srcs))
		for _, src := range srcs {
			if _, err := warm.Interpret(ctx, src, compiler.Options{}, opts, "", nil); err != nil {
				t.Fatal(err)
			}
		}
	}()

	base := liveHeap()
	compiles := sweep.NewCacheSize(len(srcs))
	for _, src := range srcs {
		if _, err := compiles.Compile(ctx, src, compiler.Options{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	afterCompile := liveHeap()
	interps := sweep.NewCacheSize(len(srcs))
	var stats sweep.Stats
	for _, src := range srcs {
		if _, err := interps.Interpret(ctx, src, compiler.Options{}, opts, "", &stats); err != nil {
			t.Fatal(err)
		}
	}
	afterInterp := liveHeap()
	runtime.KeepAlive(compiles)
	runtime.KeepAlive(interps)

	if got := stats.ReportMisses.Load(); got != int64(len(srcs)) {
		t.Fatalf("%d report misses, want %d", got, len(srcs))
	}
	compileBytes := float64(afterCompile) - float64(base)
	interpBytes := float64(afterInterp) - float64(afterCompile)
	ratio := interpBytes / compileBytes
	t.Logf("%d programs: compile entries retain %.0f KB, report misses %.0f KB, ratio %.3f (committed %.3f)",
		len(srcs), compileBytes/1024, interpBytes/1024, ratio, retainedRatio)
	if limit := retainedRatio * 1.2; ratio > limit {
		t.Errorf("report misses retain %.3fx the heap of compile entries, above the %.3f gate", ratio, limit)
	}
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
