package exec

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hpfperf/internal/compiler"
	"hpfperf/internal/ipsc"
)

// errHdr declares a BLOCK-distributed pair plus a small replicated array
// on four processors; the first statement after it is line 10.
const errHdr = `PROGRAM p
PARAMETER (N = 64)
REAL A(N), B(N)
REAL R(8)
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(N)
!HPF$ ALIGN A(I) WITH T(I)
!HPF$ ALIGN B(I) WITH T(I)
!HPF$ DISTRIBUTE T(BLOCK) ONTO P
`

// runErr compiles src and executes it on four nodes, returning the
// execution error.
func runErr(t *testing.T, ctx context.Context, src string) error {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, err := ipsc.New(ipsc.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunContext(ctx, prog, m, Options{})
	return err
}

// TestRuntimeErrorMessages pins the exact text and source line of the
// executor's run-time errors. A loop-level error (a bad partitioned
// index) reports the line of the last statement executed before it, so
// a multi-line loop body names the body line, not the loop header.
func TestRuntimeErrorMessages(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"zero-step DO", `K = 0
DO I = 1, 10, K
  X = X + 1.0
END DO
PRINT *, X
END`, "runtime error at line 11: loop I has zero step"},
		{"MOD by zero", `J = 0
K = MOD(5, J)
PRINT *, K
END`, "runtime error at line 11: MOD by zero"},
		{"partitioned index outside its dimension", `M = N + 1
FORALL (K=1:M)
  A(K) = 1.0
  B(K) = 2.0
END FORALL
END`, "runtime error at line 12: partitioned index 65 outside dimension [1,64] of A"},
		{"partitioned index outside its dimension, DO body line", `M = N + 1
!HPF$ INDEPENDENT
DO K = 1, M
  A(K) = 1.0
  B(K) = 2.0
END DO
END`, "runtime error at line 13: partitioned index 65 outside dimension [1,64] of A"},
		{"RHS element out of bounds", `J = 9
Y = 2.0 * R(J) + 1.0
PRINT *, Y
END`, "runtime error at line 11: subscript 1 of R is 9, outside [1,8]"},
		{"RHS element out of bounds in a partitioned loop", `FORALL (K=1:N) A(K) = REAL(K)
FORALL (K=1:N)
  B(K) = A(K+1)
END FORALL
END`, "runtime error at line 12: subscript 1 of A is 65, outside [1,64]"},
		{"shadow element out of bounds", `DO I = 1, 8
  R(I) = A(I+60)
END DO
END`, "runtime error at line 11: subscript 1 of A is 65, outside [1,64]"},
		{"guarded LHS element out of bounds", `J = 100
A(J) = 1.0
END`, "runtime error at line 11: subscript 1 of A is 100, outside [1,64]"},
		{"guarded LHS element out of bounds in a DO loop", `DO I = 60, N+1
  B(I) = 1.0
END DO
END`, "runtime error at line 11: subscript 1 of B is 65, outside [1,64]"},
		{"FetchElem out of bounds", `J = 0
X = A(J)
PRINT *, X
END`, "runtime error at line 11: subscript 1 of A is 0, outside [1,64]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runErr(t, context.Background(), errHdr+tc.body)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error = %v\nwant    %s", err, tc.want)
			}
		})
	}
}

// countingCtx reports cancellation from its n-th Err call on, so a test
// can cancel a run at an exact cooperative check.
type countingCtx struct {
	context.Context
	calls  atomic.Int64
	cancel int64
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) >= c.cancel {
		return context.Canceled
	}
	return nil
}

func (c *countingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// TestCancelMidRun cancels a long run between two cooperative checks and
// requires RunContext to return ctx.Err() at the very next check, i.e.
// within ctxCheckSteps executed statements.
func TestCancelMidRun(t *testing.T) {
	src := errHdr + `DO ITER = 1, 100000
  FORALL (K=2:N-1) B(K) = 0.5*(A(K-1)+A(K+1))
END DO
END`
	ctx := &countingCtx{Context: context.Background(), cancel: 3}
	err := runErr(t, ctx, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if got := ctx.calls.Load(); got != 3 {
		t.Fatalf("ctx checked %d times, want 3 (stop at the first check after cancellation)", got)
	}

	real, cancel := context.WithCancel(context.Background())
	cancel()
	if err := runErr(t, real, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: error = %v, want context.Canceled", err)
	}
}
