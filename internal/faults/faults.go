// Package faults is a deterministic, seeded fault-injection layer for
// resilience testing. Named injection sites are threaded through the
// pipeline (compile, interpreter AAU loop, simulated-execution VM step,
// sweep cache build, sweep worker, each hpfserve handler); when an
// injector is active, each site rolls a seeded pseudo-random decision
// per call and — at the configured rate — returns a typed transient
// error, panics, or sleeps. With no active injector every site is a
// single atomic pointer load, so production paths pay essentially
// nothing.
//
// Activation is process-global (chaos is a process-level property):
// hpfserve's -chaos flag and the HPFPERF_FAULTS environment variable
// both parse a spec of the form
//
//	site:rate[:kind[:delay]][,site:rate...]
//
// e.g. "compile:0.05,server.predict:0.1:panic,exec:0.02:delay:5ms".
// Kinds are "error" (default), "panic" and "delay". Decisions are
// driven by a per-rule call counter mixed with the injector seed, so
// the number of injections over N calls to a site is reproducible for
// a given seed regardless of goroutine interleaving.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Kind selects what an injection does at its site.
type Kind int

const (
	// KindError makes the site return an *InjectedError (transient).
	KindError Kind = iota
	// KindPanic makes the site panic with an *InjectedPanic (exercising
	// recovery paths).
	KindPanic
	// KindDelay makes the site sleep for the rule's delay.
	KindDelay
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Injection site names threaded through the pipeline.
const (
	SiteCompile = "compile" // front-end pipeline inside the sweep cache
	SiteCache   = "cache"   // interpretation-report cache build
	SiteInterp  = "interp"  // interpreter AAU loop
	SiteExec    = "exec"    // simulated-execution VM statement loop
	SiteSweep   = "sweep"   // sweep worker, once per point attempt
)

// ServerSite names the injection site of one hpfserve route.
func ServerSite(route string) string { return "server." + route }

// knownSites validates specs against the sites actually threaded
// through the code, so a typo in a chaos spec fails loudly instead of
// silently injecting nothing.
var knownSites = map[string]bool{
	SiteCompile:            true,
	SiteCache:              true,
	SiteInterp:             true,
	SiteExec:               true,
	SiteSweep:              true,
	ServerSite("predict"):  true,
	ServerSite("measure"):  true,
	ServerSite("autotune"): true,
	ServerSite("analyze"):  true,
}

// Sites returns the valid injection-site names, sorted.
func Sites() []string {
	out := make([]string, 0, len(knownSites))
	for s := range knownSites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// InjectedError is the typed error returned by KindError injections.
// It is transient: retry layers (sweep point retry, hpfclient) treat it
// as retryable, and caches must not memoize it.
type InjectedError struct {
	Site string
}

func (e *InjectedError) Error() string {
	return "faults: injected error at site " + e.Site
}

// Transient marks the error retryable (see sweep.IsTransient).
func (e *InjectedError) Transient() bool { return true }

// InjectedPanic is the value KindPanic injections panic with. Like
// InjectedError it is transient: a recovered panic whose value is an
// *InjectedPanic belongs to the attempt, not to the input, so retry
// layers may retry it and caches must not memoize it. Any other panic
// value is a real defect of the input's pipeline path and repeats on
// every attempt.
type InjectedPanic struct {
	Site string
}

func (p *InjectedPanic) String() string {
	return "faults: injected panic at site " + p.Site
}

// Transient marks the panic retryable (see sweep.PanicError).
func (p *InjectedPanic) Transient() bool { return true }

// DefaultDelay is the sleep applied by KindDelay rules that carry no
// explicit duration.
const DefaultDelay = 2 * time.Millisecond

// Rule is one site's injection configuration.
type Rule struct {
	Site  string
	Rate  float64 // injection probability per call, in [0, 1]
	Kind  Kind
	Delay time.Duration // KindDelay only; 0 = DefaultDelay
}

// rule pairs a Rule with its live counters (never copied after Add).
type rule struct {
	Rule
	calls atomic.Uint64
	fired atomic.Uint64
}

// Injector holds an immutable rule set plus per-rule counters. Build
// one with New/Parse, then install it with Activate. A nil *Injector
// fires nothing.
type Injector struct {
	seed  uint64
	rules map[string][]*rule
}

// New returns an empty injector with the given decision seed.
func New(seed int64) *Injector {
	return &Injector{seed: uint64(seed), rules: make(map[string][]*rule)}
}

// Add appends a rule. The site must be one of Sites(); rate must be in
// [0, 1]. Multiple rules per site compose (each rolls independently).
func (inj *Injector) Add(r Rule) error {
	if !knownSites[r.Site] {
		return fmt.Errorf("faults: unknown site %q (valid: %s)", r.Site, strings.Join(Sites(), ", "))
	}
	if r.Rate < 0 || r.Rate > 1 {
		return fmt.Errorf("faults: site %s: rate %g out of [0,1]", r.Site, r.Rate)
	}
	if r.Kind == KindDelay && r.Delay <= 0 {
		r.Delay = DefaultDelay
	}
	inj.rules[r.Site] = append(inj.rules[r.Site], &rule{Rule: r})
	return nil
}

// Parse builds an injector from a comma-separated spec
// ("site:rate[:kind[:delay]],...") and seed. An empty spec yields an
// injector that fires nothing.
func Parse(spec string, seed int64) (*Injector, error) {
	inj := New(seed)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 4 {
			return nil, fmt.Errorf("faults: bad spec entry %q (want site:rate[:kind[:delay]])", entry)
		}
		rate, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("faults: bad rate in %q: %v", entry, err)
		}
		r := Rule{Site: parts[0], Rate: rate}
		if len(parts) >= 3 {
			switch parts[2] {
			case "error":
				r.Kind = KindError
			case "panic":
				r.Kind = KindPanic
			case "delay":
				r.Kind = KindDelay
			default:
				return nil, fmt.Errorf("faults: bad kind %q in %q (error|panic|delay)", parts[2], entry)
			}
		}
		if len(parts) == 4 {
			if r.Kind != KindDelay {
				return nil, fmt.Errorf("faults: delay given for non-delay rule %q", entry)
			}
			d, err := time.ParseDuration(parts[3])
			if err != nil {
				return nil, fmt.Errorf("faults: bad delay in %q: %v", entry, err)
			}
			r.Delay = d
		}
		if err := inj.Add(r); err != nil {
			return nil, err
		}
	}
	return inj, nil
}

// splitmix64 is the decision hash: counter-indexed so decisions are a
// pure function of (seed, site, kind, call number).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func siteHash(site string, kind Kind) uint64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h ^ uint64(kind)<<56
}

// decide returns whether call number n of a rule injects.
func decide(seed, site uint64, n uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := splitmix64(seed ^ site ^ n)
	return float64(h>>11)/float64(1<<53) < rate
}

// fire rolls every rule of one site.
func (inj *Injector) fire(site string) error {
	for _, r := range inj.rules[site] {
		n := r.calls.Add(1)
		if !decide(inj.seed, siteHash(site, r.Kind), n, r.Rate) {
			continue
		}
		r.fired.Add(1)
		switch r.Kind {
		case KindPanic:
			panic(&InjectedPanic{Site: site})
		case KindDelay:
			time.Sleep(r.Delay)
		default:
			return &InjectedError{Site: site}
		}
	}
	return nil
}

// SiteStats reports one rule's activity.
type SiteStats struct {
	Site  string
	Kind  Kind
	Rate  float64
	Calls uint64
	Fired uint64
}

// Stats returns per-rule call/injection counts, sorted by site then kind.
func (inj *Injector) Stats() []SiteStats {
	if inj == nil {
		return nil
	}
	var out []SiteStats
	for site, rs := range inj.rules {
		for _, r := range rs {
			out = append(out, SiteStats{
				Site: site, Kind: r.Kind, Rate: r.Rate,
				Calls: r.calls.Load(), Fired: r.fired.Load(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// active is the process-global injector; nil when chaos is off.
var active atomic.Pointer[Injector]

// Activate installs inj as the process-global injector (nil disables).
func Activate(inj *Injector) { active.Store(inj) }

// Deactivate removes the process-global injector.
func Deactivate() { active.Store(nil) }

// Enabled reports whether an injector is active.
func Enabled() bool { return active.Load() != nil }

// Fire is the injection point called from instrumented sites: a no-op
// (one atomic load) unless an injector is active, in which case it may
// return an *InjectedError, panic, or sleep per the site's rules.
func Fire(site string) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	return inj.fire(site)
}
