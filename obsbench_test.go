// Observability overhead benchmarks. The tracing subsystem's contract
// is that a program which never opts in pays only nil checks:
// BenchmarkPredictUntraced vs BenchmarkPredictTraced quantifies the
// enabled cost, and TestDisabledTracingOverhead bounds the disabled cost
// below 2% of a prediction.
package hpfperf_test

import (
	"context"
	"testing"

	"hpfperf"
	"hpfperf/internal/obs"
	"hpfperf/internal/suite"
)

func benchProgram(b testing.TB) *hpfperf.Program {
	prog, err := hpfperf.Compile(suite.LaplaceBB().Source(64, 4))
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkPredictUntraced is the default path: no span in the context,
// every instrumentation site reduces to a nil check.
func BenchmarkPredictUntraced(b *testing.B) {
	prog := benchProgram(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hpfperf.PredictContext(ctx, prog, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictTraced pays full tracing: a fresh tracer per
// prediction with every interp.<kind> span recorded.
func BenchmarkPredictTraced(b *testing.B) {
	prog := benchProgram(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracer := obs.NewTracer("benchbenchbenchbenchbenchbench00")
		root := tracer.Root("bench.predict")
		ctx := obs.ContextWithSpan(context.Background(), root)
		if _, err := hpfperf.PredictContext(ctx, prog, nil); err != nil {
			b.Fatal(err)
		}
		root.End()
		if tree := tracer.Tree(); tree.Spans < 2 {
			b.Fatalf("traced run recorded %d spans", tree.Spans)
		}
	}
}

// tracedSpanCount runs one traced prediction and returns how many spans
// it records — the number of instrumentation sites a disabled-tracing
// run pays a nil check at.
func tracedSpanCount(t testing.TB, prog *hpfperf.Program) int {
	tracer := obs.NewTracer(obs.NewTraceID())
	root := tracer.Root("count")
	ctx := obs.ContextWithSpan(context.Background(), root)
	if _, err := hpfperf.PredictContext(ctx, prog, nil); err != nil {
		t.Fatal(err)
	}
	root.End()
	return tracer.Tree().Spans
}

// TestDisabledTracingOverhead bounds the cost of carrying the tracing
// subsystem while it is off. Rather than racing two identical loops
// (which only measures scheduler noise), it measures the disabled-path
// primitive directly — obs.Start + span method + End on an untraced
// context — asserts it allocates nothing, and requires
// (primitive cost x instrumentation sites) < 2% of one prediction.
func TestDisabledTracingOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	prog := benchProgram(t)
	sites := tracedSpanCount(t, prog)

	fast := testing.Benchmark(func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, span := obs.Start(ctx, "disabled")
			span.SetAttrInt("procs", 4)
			span.End()
		}
	})
	if allocs := fast.AllocsPerOp(); allocs != 0 {
		t.Errorf("disabled-path span site allocates %d objects/op, want 0", allocs)
	}

	predict := testing.Benchmark(func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if _, err := hpfperf.PredictContext(ctx, prog, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	overhead := float64(fast.NsPerOp()*int64(sites)) / float64(predict.NsPerOp())
	t.Logf("disabled span site: %dns x %d sites vs predict %dns => %.4f%% overhead",
		fast.NsPerOp(), sites, predict.NsPerOp(), overhead*100)
	if overhead >= 0.02 {
		t.Errorf("disabled tracing costs %.2f%% of a prediction, want < 2%%", overhead*100)
	}
}
