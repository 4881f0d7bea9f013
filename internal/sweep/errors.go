package sweep

import (
	"errors"
	"fmt"
)

// PanicError is a recovered panic from the compilation pipeline, the
// interpretation engine, or a sweep point body. Callers classify it
// with errors.As (hpfserve maps it to HTTP 500) instead of substring
// matching. The pipeline is a pure function of its input, so a real
// panic is permanent: it repeats on every attempt, is never retried and
// stays cached under its key like any deterministic error. Only a panic
// whose value is itself transient (a faults.InjectedPanic) belongs to
// the attempt rather than to the input.
type PanicError struct {
	// Stage names where the panic was recovered ("compile",
	// "interpret", "sweep point 12", ...).
	Stage string
	// Value is the recovered panic value.
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%s: internal panic: %v", e.Stage, e.Value)
}

// Transient reports whether the recovered value is itself transient,
// which only an injected fault is (see IsTransient).
func (e *PanicError) Transient() bool {
	t, ok := e.Value.(interface{ Transient() bool })
	return ok && t.Transient()
}

// IsTransient reports whether err is marked retryable: any error in
// its chain implementing `Transient() bool` and returning true
// (faults.InjectedError, a PanicError of a faults.InjectedPanic).
// Deterministic pipeline errors (parse/compile/interpret failures, real
// panics) and context errors are permanent — retrying them would
// re-derive the same failure.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}
