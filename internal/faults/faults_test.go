package faults

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	inj, err := Parse("compile:0.05,server.predict:0.1:panic,exec:0.02:delay:5ms,sweep:1:error", 42)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	st := inj.Stats()
	if len(st) != 4 {
		t.Fatalf("rules = %d, want 4", len(st))
	}
	byKey := map[string]SiteStats{}
	for _, s := range st {
		byKey[s.Site] = s
	}
	if byKey["server.predict"].Kind != KindPanic {
		t.Errorf("server.predict kind = %v, want panic", byKey["server.predict"].Kind)
	}
	if byKey["exec"].Kind != KindDelay {
		t.Errorf("exec kind = %v, want delay", byKey["exec"].Kind)
	}
	if byKey["sweep"].Rate != 1 {
		t.Errorf("sweep rate = %g, want 1", byKey["sweep"].Rate)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"nosuchsite:0.1",        // unknown site
		"compile:1.5",           // rate out of range
		"compile:-0.1",          // negative rate
		"compile:x",             // unparsable rate
		"compile",               // missing rate
		"compile:0.1:frob",      // unknown kind
		"compile:0.1:error:5ms", // delay on non-delay kind
		"exec:0.1:delay:zzz",    // bad duration
		"a:b:c:d:e",             // too many fields
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
}

func TestEmptySpecFiresNothing(t *testing.T) {
	inj, err := Parse("", 1)
	if err != nil {
		t.Fatal(err)
	}
	Activate(inj)
	defer Deactivate()
	for i := 0; i < 100; i++ {
		if err := Fire(SiteCompile); err != nil {
			t.Fatalf("empty injector fired: %v", err)
		}
	}
}

func TestInactiveFireIsNil(t *testing.T) {
	Deactivate()
	if Enabled() {
		t.Fatal("Enabled() after Deactivate")
	}
	if err := Fire(SiteSweep); err != nil {
		t.Fatalf("inactive Fire = %v, want nil", err)
	}
}

func TestErrorKindReturnsTypedTransientError(t *testing.T) {
	inj := New(7)
	if err := inj.Add(Rule{Site: SiteCompile, Rate: 1, Kind: KindError}); err != nil {
		t.Fatal(err)
	}
	err := inj.fire(SiteCompile)
	var ie *InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InjectedError", err, err)
	}
	if ie.Site != SiteCompile || !ie.Transient() {
		t.Errorf("InjectedError = %+v, want transient at %s", ie, SiteCompile)
	}
	if !strings.Contains(err.Error(), SiteCompile) {
		t.Errorf("error text %q does not name the site", err)
	}
}

func TestPanicKindPanics(t *testing.T) {
	inj := New(7)
	if err := inj.Add(Rule{Site: SiteExec, Rate: 1, Kind: KindPanic}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("rate-1 panic rule did not panic")
		}
		ip, ok := r.(*InjectedPanic)
		if !ok || ip.Site != SiteExec || !ip.Transient() {
			t.Fatalf("panic value = %#v, want a transient *InjectedPanic at %s", r, SiteExec)
		}
		if got := fmt.Sprint(r); got != "faults: injected panic at site exec" {
			t.Errorf("panic text = %q", got)
		}
	}()
	inj.fire(SiteExec)
}

func TestDelayKindSleeps(t *testing.T) {
	inj := New(7)
	if err := inj.Add(Rule{Site: SiteInterp, Rate: 1, Kind: KindDelay, Delay: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := inj.fire(SiteInterp); err != nil {
		t.Fatalf("delay rule returned error: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("delay slept %v, want >= 20ms", d)
	}
}

func TestDecisionRateAndDeterminism(t *testing.T) {
	const n = 20000
	count := func(seed int64) int {
		inj := New(seed)
		if err := inj.Add(Rule{Site: SiteSweep, Rate: 0.1, Kind: KindError}); err != nil {
			t.Fatal(err)
		}
		fired := 0
		for i := 0; i < n; i++ {
			if inj.fire(SiteSweep) != nil {
				fired++
			}
		}
		return fired
	}
	a, b := count(42), count(42)
	if a != b {
		t.Errorf("same seed fired %d then %d times; decisions not deterministic", a, b)
	}
	// 10% of 20000 = 2000; allow a generous band around it.
	if a < 1600 || a > 2400 {
		t.Errorf("rate 0.1 fired %d/%d times, want ~2000", a, n)
	}
	if c := count(43); c == a {
		t.Logf("different seeds coincided (%d) — unlikely but not an error", c)
	}
}

func TestStatsCountsCallsAndFires(t *testing.T) {
	inj := New(1)
	if err := inj.Add(Rule{Site: SiteCache, Rate: 0.5, Kind: KindError}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		inj.fire(SiteCache)
	}
	st := inj.Stats()
	if len(st) != 1 || st[0].Calls != 100 {
		t.Fatalf("stats = %+v, want one rule with 100 calls", st)
	}
	if st[0].Fired == 0 || st[0].Fired == 100 {
		t.Errorf("fired = %d at rate 0.5 over 100 calls; decision looks degenerate", st[0].Fired)
	}
}

func TestSitesListsKnownSites(t *testing.T) {
	sites := Sites()
	want := map[string]bool{"compile": true, "cache": true, "interp": true, "exec": true, "sweep": true}
	for _, s := range sites {
		delete(want, s)
	}
	if len(want) != 0 {
		t.Errorf("Sites() missing %v (got %v)", want, sites)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{KindError: "error", KindPanic: "panic", KindDelay: "delay", Kind(99): "Kind(99)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
