package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"hpfperf/internal/faults"
)

func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}
}

func TestMapRetriesTransientFailures(t *testing.T) {
	e := New(Options{Workers: 4, Retry: fastRetry(4)})
	var calls [8]atomic.Int64
	res, err := Map(e, 8, func(i int) (int, error) {
		if calls[i].Add(1) < 3 {
			return 0, &faults.InjectedError{Site: "test"}
		}
		return i * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v != i*10 {
			t.Errorf("res[%d] = %d", i, v)
		}
		if n := calls[i].Load(); n != 3 {
			t.Errorf("point %d evaluated %d times, want 3", i, n)
		}
	}
	if got := e.Snapshot().Retries; got != 16 {
		t.Errorf("retries = %d, want 16", got)
	}
}

func TestMapDoesNotRetryPermanentErrors(t *testing.T) {
	e := New(Options{Workers: 2, Retry: fastRetry(5)})
	var calls atomic.Int64
	wantErr := errors.New("compile: bad program")
	_, err := Map(e, 1, func(i int) (int, error) {
		calls.Add(1)
		return 0, wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("permanent error evaluated %d times, want 1", n)
	}
	if got := e.Snapshot().Retries; got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
}

func TestMapRecoversPointPanics(t *testing.T) {
	// Under the default policy a real panic is permanent: the point is
	// recovered (and counted) once, never retried into the same panic.
	e := New(Options{Workers: 4})
	_, err := Map(e, 10, func(i int) (int, error) {
		if i == 6 {
			panic("kaboom")
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if pe.Value != "kaboom" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if got := e.Snapshot().PointPanics; got != 1 {
		t.Errorf("point panics = %d, want 1", got)
	}
	if got := e.Snapshot().Retries; got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
}

func TestInjectedPanicsAreRetried(t *testing.T) {
	e := New(Options{Workers: 2, Retry: fastRetry(3)})
	var calls atomic.Int64
	res, err := Map(e, 1, func(i int) (int, error) {
		if calls.Add(1) == 1 {
			panic(&faults.InjectedPanic{Site: faults.SiteSweep})
		}
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 42 {
		t.Errorf("res[0] = %d", res[0])
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("evaluated %d times, want 2", n)
	}
}

func TestIsTransient(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain"), false},
		{&faults.InjectedError{Site: "compile"}, true},
		{&PanicError{Stage: "x", Value: "v"}, false},
		{&PanicError{Stage: "x", Value: &faults.InjectedPanic{Site: "interp"}}, true},
		{errors.Join(errors.New("wrap"), &faults.InjectedError{Site: "s"}), true},
		{context.Canceled, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %t, want %t", c.err, got, c.want)
		}
	}
}

func TestRetryBackoffBounded(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond}
	for retry := 1; retry <= 20; retry++ {
		d := p.backoff(retry)
		if d <= 0 || d > p.MaxDelay {
			t.Fatalf("backoff(%d) = %v out of (0, %v]", retry, d, p.MaxDelay)
		}
	}
}

// ---------------------------------------------------------------------------
// Checkpoint / resume

func ckptAt(t *testing.T, key string) *Checkpoint {
	t.Helper()
	return &Checkpoint{Path: filepath.Join(t.TempDir(), "sweep.ckpt"), Key: key}
}

func TestCheckpointResumeSkipsCompletedPoints(t *testing.T) {
	e := New(Options{Workers: 1})
	ck := ckptAt(t, "resume-test")
	const n = 10

	// First run fails at point 6; Map evaluates every point (lowest-
	// index error semantics), so all points except 6 are recorded.
	var firstCalls atomic.Int64
	_, err := MapCheckpoint(e, n, ck, func(i int) (float64, error) {
		firstCalls.Add(1)
		if i == 6 {
			return 0, errors.New("crash here")
		}
		return float64(i) * 1.5, nil
	})
	if err == nil {
		t.Fatal("first run should fail")
	}
	if _, err := os.Stat(ck.Path); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}

	// Second run must only evaluate the point the first one did not
	// record.
	var secondCalls atomic.Int64
	res, err := MapCheckpoint(e, n, ck, func(i int) (float64, error) {
		secondCalls.Add(1)
		if i != 6 {
			t.Errorf("point %d re-evaluated despite checkpoint", i)
		}
		return float64(i) * 1.5, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v != float64(i)*1.5 {
			t.Errorf("res[%d] = %g, want %g", i, v, float64(i)*1.5)
		}
	}
	if got := secondCalls.Load(); got != 1 {
		t.Errorf("second run evaluated %d points, want 1", got)
	}
	if _, err := os.Stat(ck.Path); !os.IsNotExist(err) {
		t.Errorf("checkpoint file not removed after success: %v", err)
	}
}

func TestCheckpointKeyMismatchStartsFresh(t *testing.T) {
	e := New(Options{Workers: 2})
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")

	ck1 := &Checkpoint{Path: path, Key: "config-A"}
	_, err := MapCheckpoint(e, 4, ck1, func(i int) (int, error) {
		if i == 3 {
			return 0, errors.New("fail to keep the file")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want failure")
	}

	// A different key must ignore the stale file.
	ck2 := &Checkpoint{Path: path, Key: "config-B"}
	var calls atomic.Int64
	if _, err := MapCheckpoint(e, 4, ck2, func(i int) (int, error) {
		calls.Add(1)
		return i + 100, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("evaluated %d points with mismatched key, want all 4", got)
	}
}

func TestCheckpointCorruptFileStartsFresh(t *testing.T) {
	e := New(Options{Workers: 2})
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck := &Checkpoint{Path: path, Key: "k"}
	res, err := MapCheckpoint(e, 3, ck, func(i int) (int, error) { return i * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v != i*2 {
			t.Errorf("res[%d] = %d", i, v)
		}
	}
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	e := New(Options{Workers: 2})
	const n = 8
	point := func(i int) (float64, error) {
		// Exercise non-trivial float values (JSON round trip must be exact).
		return float64(i) / 7.0 * 1e6, nil
	}
	clean, err := Map(e, n, point)
	if err != nil {
		t.Fatal(err)
	}

	ck := ckptAt(t, "identical")
	// Interrupted run: cancel after a few points complete.
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	_, _ = MapCheckpointCtx(ctx, e, n, ck, func(i int) (float64, error) {
		v, _ := point(i)
		if done.Add(1) == 3 {
			cancel()
		}
		return v, nil
	})
	cancel()

	resumed, err := MapCheckpoint(e, n, ck, point)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(clean)
	b, _ := json.Marshal(resumed)
	if string(a) != string(b) {
		t.Errorf("resumed output differs:\nclean   %s\nresumed %s", a, b)
	}
}

func TestCheckpointNilDegradesToMapCtx(t *testing.T) {
	e := New(Options{Workers: 2})
	res, err := MapCheckpoint(e, 3, nil, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("len = %d", len(res))
	}
}

func TestCheckpointRequiresPath(t *testing.T) {
	e := New(Options{Workers: 1})
	_, err := MapCheckpoint(e, 1, &Checkpoint{Key: "k"}, func(i int) (int, error) { return i, nil })
	if err == nil {
		t.Fatal("want error for checkpoint without path")
	}
}

func TestPanicErrorString(t *testing.T) {
	pe := &PanicError{Stage: "sweep point 3", Value: "boom"}
	if got := pe.Error(); got != "sweep point 3: internal panic: boom" {
		t.Errorf("Error() = %q", got)
	}
}
