// BENCH_PR6.json harness: the sweep-engine throughput snapshot.
//
// TestEmitBenchPR6 (gated on HPFPERF_EMIT_BENCH) measures the warm-cache
// Table 2 quick sweep and a fixed pure-Go reference loop and writes both
// rates to BENCH_PR6.json. TestCheckBenchPR6 (gated on
// HPFPERF_CHECK_BENCH) re-measures both and fails when the cached sweep
// rate, normalized by the reference rate of the same run, regressed more
// than 20% against the committed snapshot — the CI bench job's
// regression gate.
package hpfperf_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"hpfperf/internal/experiments"
	"hpfperf/internal/sweep"
)

// sweepBenchRecord is one row of BENCH_PR6.json.
type sweepBenchRecord struct {
	Name         string  `json:"name"`
	NsPerOp      int64   `json:"ns_per_op"`
	PointsPerSec float64 `json:"points_per_sec"`
}

const benchPR6File = "BENCH_PR6.json"

// sweepCachedRecord measures the warm-engine sweep on one worker: one
// untimed warmup run populates every cache (compiled programs,
// prediction forms, reports, measurements), the stats are reset so the
// warmup does not dilute the rate, and the timed iterations then replay
// the full grid against the caches. One worker keeps the rate
// comparable with the single-threaded reference loop on any core count.
func sweepCachedRecord(t *testing.T) sweepBenchRecord {
	t.Helper()
	cfg := benchCfg()
	cfg.Engine = sweep.New(sweep.Options{Workers: 1})
	if _, err := experiments.Table2(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Engine.Stats().Reset()
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Table2(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	snap := cfg.Engine.Snapshot()
	return sweepBenchRecord{Name: "BenchmarkSweepCached", NsPerOp: r.NsPerOp(), PointsPerSec: snap.PointsPerSec}
}

// referenceSource is the fixed input of the reference loop.
var referenceSource = []byte(strings.Repeat("      A(I) = B(I-1) + B(I+1)\n", 128))

// referenceRecord times the gate's normalizer: a fixed pure-Go loop
// shaped like a warm-cache sweep point (hash a source, format a key,
// probe a map). It calls no code of this module, so no product change
// can speed it up, while it still tracks host speed. Its "points" are
// loop iterations.
func referenceRecord() sweepBenchRecord {
	r := testing.Benchmark(func(b *testing.B) {
		keys := make(map[string]int)
		for i := 0; i < b.N; i++ {
			sum := sha256.Sum256(referenceSource)
			keys[fmt.Sprintf("%x|n=%d", sum[:16], i%64)]++
		}
	})
	return sweepBenchRecord{Name: "ReferenceLoop", NsPerOp: r.NsPerOp(), PointsPerSec: 1e9 / float64(r.NsPerOp())}
}

// bestOfPR6 interleaves rounds of the cached-sweep and reference
// measurements and keeps each one's best rate, so a burst of load from
// another process on the host depresses neither side of the ratio.
func bestOfPR6(t *testing.T, rounds int) (cached, ref sweepBenchRecord) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		if c := sweepCachedRecord(t); c.PointsPerSec > cached.PointsPerSec {
			cached = c
		}
		if r := referenceRecord(); r.PointsPerSec > ref.PointsPerSec {
			ref = r
		}
	}
	return cached, ref
}

// TestEmitBenchPR6 writes the sweep throughput snapshot to
// BENCH_PR6.json when HPFPERF_EMIT_BENCH is set.
func TestEmitBenchPR6(t *testing.T) {
	if os.Getenv("HPFPERF_EMIT_BENCH") == "" {
		t.Skip("set HPFPERF_EMIT_BENCH=1 to emit " + benchPR6File)
	}
	cached, ref := bestOfPR6(t, 5)
	records := []sweepBenchRecord{cached, ref}
	f, err := os.Create(benchPR6File)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		t.Logf("%s: %d ns/op, %.1f points/sec", r.Name, r.NsPerOp, r.PointsPerSec)
	}
}

// TestCheckBenchPR6 re-measures the cached sweep and fails when its
// points/sec regressed more than 20% against the committed snapshot.
// Raw points/sec depends on the host, so both sides are normalized by
// the reference-loop rate of their own run. (The gate used to normalize
// by the cold-sweep rate, which product work speeds up: a faster
// executor then read as a caching regression.) Gated on
// HPFPERF_CHECK_BENCH so local `go test ./...` stays fast.
func TestCheckBenchPR6(t *testing.T) {
	if os.Getenv("HPFPERF_CHECK_BENCH") == "" {
		t.Skip("set HPFPERF_CHECK_BENCH=1 to diff against " + benchPR6File)
	}
	data, err := os.ReadFile(benchPR6File)
	if err != nil {
		t.Fatalf("no committed snapshot: %v", err)
	}
	var committed []sweepBenchRecord
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatalf("malformed %s: %v", benchPR6File, err)
	}
	byName := make(map[string]sweepBenchRecord, len(committed))
	for _, r := range committed {
		byName[r.Name] = r
	}
	wantCached, ok1 := byName["BenchmarkSweepCached"]
	wantRef, ok2 := byName["ReferenceLoop"]
	if !ok1 || !ok2 || wantRef.PointsPerSec <= 0 {
		t.Fatalf("snapshot incomplete: %+v", committed)
	}
	gotCached, gotRef := bestOfPR6(t, 5)

	committedRatio := wantCached.PointsPerSec / wantRef.PointsPerSec
	freshRatio := gotCached.PointsPerSec / gotRef.PointsPerSec
	floor := committedRatio * 0.8
	t.Logf("cached %.1f points/sec, reference %.1f loops/sec: ratio %.4f (committed %.4f, floor %.4f)",
		gotCached.PointsPerSec, gotRef.PointsPerSec, freshRatio, committedRatio, floor)
	if freshRatio < floor {
		t.Errorf("cached sweep ratio %.4f is a >20%% points/sec regression against the committed %.4f",
			freshRatio, committedRatio)
	}
}
