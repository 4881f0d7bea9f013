package sweep

import (
	"math/rand/v2"
	"time"
)

// RetryPolicy bounds the per-point retry loop of Map/MapCtx. Only
// transient failures (IsTransient: injected faults and injected
// panics) are retried; deterministic pipeline errors and real panics
// fail the point on the first attempt. The zero value selects the
// defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per point, including
	// the first (<= 0 selects 3; 1 disables retry).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (<= 0 selects 2ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (<= 0 selects 100ms).
	MaxDelay time.Duration
}

// DefaultRetryPolicy is the policy engines use when Options.Retry is
// the zero value.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
}

func (p RetryPolicy) normalized() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	return p
}

// backoff returns the sleep before retry number `retry` (1-based):
// full-jitter exponential backoff, uniform in (0, min(MaxDelay,
// BaseDelay*2^(retry-1))]. Jitter decorrelates workers that failed on
// the same contended resource; the sweep's results stay deterministic
// regardless of sleep durations because Map orders results by index.
func (p RetryPolicy) backoff(retry int) time.Duration {
	ceil := p.BaseDelay << uint(retry-1)
	if ceil > p.MaxDelay || ceil <= 0 { // <= 0 guards shift overflow
		ceil = p.MaxDelay
	}
	return time.Duration(rand.Int64N(int64(ceil))) + 1
}
