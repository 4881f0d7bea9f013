package sysmodel_test

import (
	"os"
	"reflect"
	"sync"
	"testing"

	"hpfperf"
	"hpfperf/internal/autotune"
	"hpfperf/internal/core"
	"hpfperf/internal/sysmodel"
)

// TestMachineByNameShared pins the sharing contract: one model per
// canonical name, a distinct one per node count, and no cached errors.
func TestMachineByNameShared(t *testing.T) {
	a, err := sysmodel.MachineByName("ipsc860")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ipsc860", "", "IPSC860", "iPSC860"} {
		b, err := sysmodel.MachineByName(name)
		if err != nil || b != a {
			t.Errorf("MachineByName(%q) = %p, %v; want the shared %p", name, b, err, a)
		}
	}
	if sysmodel.SharedIPSC860() != a {
		t.Error("SharedIPSC860 is not the model MachineByName(\"\") serves")
	}
	big, err := sysmodel.MachineByName("ipsc860:32")
	if err != nil {
		t.Fatal(err)
	}
	if big == a || big.MaxNodes != 32 || a.MaxNodes != 8 {
		t.Errorf("ipsc860:32 = %p with %d nodes, default %p with %d", big, big.MaxNodes, a, a.MaxNodes)
	}
	if again, _ := sysmodel.MachineByName("IPSC860:32"); again != big {
		t.Error("a sized name is not shared across spellings")
	}
	for i := 0; i < 3; i++ {
		for _, bad := range []string{"cray", "ipsc860:7", "ipsc860:x", "paragon:0"} {
			if m, err := sysmodel.MachineByName(bad); err == nil {
				t.Errorf("call %d: MachineByName(%q) = %v, want an error", i, bad, m)
			}
		}
	}
}

func TestCanonicalName(t *testing.T) {
	for in, want := range map[string]string{
		"": "ipsc860", "ipsc860": "ipsc860", "IPSC860": "ipsc860",
		"Paragon": "paragon", "ipsc860:32": "ipsc860:32", "PARAGON:016": "paragon:16",
	} {
		if got, err := sysmodel.CanonicalName(in); err != nil || got != want {
			t.Errorf("CanonicalName(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"cray", "ipsc860:x", "paragon:-2"} {
		if _, err := sysmodel.CanonicalName(bad); err == nil {
			t.Errorf("CanonicalName(%q) accepted", bad)
		}
	}
}

// TestMachineByNameConcurrent races first lookups of several names; run
// it under -race. Every caller of one name must get the same model.
func TestMachineByNameConcurrent(t *testing.T) {
	names := []string{"paragon:4", "PARAGON:4", "ipsc860:16", "ipsc860:16", "", "paragon"}
	got := make([][]*sysmodel.Machine, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, n := range names {
				m, err := sysmodel.MachineByName(n)
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], m)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i := range names {
			if len(got[g]) != len(names) || got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d got a different model for %q", g, names[i])
			}
		}
	}
	if got[0][0] != got[0][1] {
		t.Error("paragon:4 and PARAGON:4 are different models")
	}
}

// TestSharedMachinesStayPristine runs predictions, measurements and an
// autotune search on the shared models and then compares each with a
// freshly built one: no code path may write through a shared model.
func TestSharedMachinesStayPristine(t *testing.T) {
	src, err := os.ReadFile("../../testdata/laplace.hpf")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := hpfperf.Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, mach := range []string{"", "paragon", "ipsc860:32"} {
		if _, err := hpfperf.Predict(prog, &hpfperf.PredictOptions{Machine: mach}); err != nil {
			t.Fatalf("predict on %q: %v", mach, err)
		}
		if _, err := hpfperf.Measure(prog, &hpfperf.MeasureOptions{Machine: mach, Runs: 2}); err != nil {
			t.Fatalf("measure on %q: %v", mach, err)
		}
	}
	if _, err := autotune.Search(string(src), autotune.Options{Procs: 4, Interp: core.DefaultOptions()}); err != nil {
		t.Fatalf("autotune: %v", err)
	}

	sized, err := sysmodel.IPSC860Sized(32)
	if err != nil {
		t.Fatal(err)
	}
	for name, fresh := range map[string]*sysmodel.Machine{
		"":           sysmodel.IPSC860(),
		"paragon":    sysmodel.ParagonXPS(),
		"ipsc860:32": sized,
	} {
		m, err := sysmodel.MachineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, fresh) {
			t.Errorf("shared model %q no longer equals a freshly built one", name)
		}
	}
}
