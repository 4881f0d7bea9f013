package sysmodel

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ParagonXPS builds the system abstraction of an Intel Paragon XP/S-like
// successor machine: i860 XP nodes at 50 MHz with 16 KB data caches and a
// much faster interconnect (wormhole-routed mesh, ≈40 µs latency,
// ≈175 MB/s links). The paper's §7 proposes exploiting the framework "as
// a system design evaluation tool"; this second characterization enables
// exactly that kind of what-if analysis (see examples/system-design).
//
// The mesh topology is approximated by the same rank-distance model as
// the hypercube; with the Paragon's sub-microsecond per-hop cost the
// approximation is immaterial.
func ParagonXPS() *Machine {
	proc := &Processing{
		ClockMHz: 50,

		FAddCycles:    2.5,
		FMulCycles:    3.0,
		FDivCycles:    34,
		PowCycles:     150,
		IntOpCycles:   1.2,
		CmpCycles:     1.8,
		LogicalCycles: 1.2,

		LoopOverheadCycles:  5,
		BranchCycles:        3.5,
		IndexCycles:         3.5,
		GuardCycles:         4.5,
		IntrinsicCallCycles: 16,
		IntrinsicCycles: map[string]float64{
			"ABS": 2, "SQRT": 54, "EXP": 82, "LOG": 88, "SIN": 78,
			"COS": 78, "TAN": 98, "ATAN": 90, "MOD": 11, "MIN": 4,
			"MAX": 4, "SIGN": 3, "INT": 4, "REAL": 3, "FLOAT": 3, "DBLE": 3,
		},
		StartupStatueCycles: 2,
	}
	mem := &Memory{
		LoadCycles:        2.0,
		StoreCycles:       2.0,
		DCacheBytes:       16 * 1024,
		ICacheBytes:       16 * 1024,
		LineBytes:         32,
		MissPenaltyCycles: 24,
		MainMemoryBytes:   32 * 1024 * 1024,
	}
	comm := &Comm{
		ShortStartupUS:     42,
		LongStartupUS:      72,
		PerByteUS:          0.0057, // ≈175 MB/s
		PerHopUS:           0.1,
		LongThresholdBytes: 256,
		ReduceStageUS:      48,
		BcastStageUS:       45,
		GatherStageUS:      50,
		PackPerByteUS:      0.04,
		PackStartupUS:      3,
	}
	hostIO := &IO{HostStartupUS: 250, HostPerByteUS: 0.6}

	nodeSAU := &SAU{Name: "i860XP-node", P: proc, M: mem, C: comm, IO: hostIO}
	hostSAU := &SAU{
		Name: "service-node",
		P:    proc,
		IO:   hostIO,
	}
	mesh := &SAGNode{SAU: &SAU{Name: "xp-mesh", C: comm}}
	for i := 0; i < 8; i++ {
		mesh.Children = append(mesh.Children, &SAGNode{
			SAU: &SAU{Name: fmt.Sprintf("xp-node-%d", i), P: proc, M: mem, C: comm},
		})
	}
	root := &SAGNode{
		SAU:      &SAU{Name: "Paragon XP/S"},
		Children: []*SAGNode{{SAU: hostSAU}, mesh},
	}
	return &Machine{
		Name:     "Paragon XP/S",
		SAG:      &SAG{Root: root},
		Node:     nodeSAU,
		Host:     hostSAU,
		MaxNodes: 8,
	}
}

// machineBuilders registers the available system abstractions by name.
var machineBuilders = map[string]func() *Machine{
	"ipsc860": IPSC860,
	"paragon": ParagonXPS,
}

// MachineNames lists the registered system abstractions.
func MachineNames() []string {
	names := make([]string, 0, len(machineBuilders))
	for n := range machineBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sharedCap bounds the shared-model registry. Only the node count of a
// name is open-ended ("paragon:n" accepts any n > 0), so without a bound
// a long-running server would keep one model per count it was ever
// asked for; past the cap, MachineByName builds unshared models.
const sharedCap = 64

// shared holds the one model per canonical name that MachineByName hands
// out. Errors are never stored, so a bad name fails on every call.
var shared = struct {
	sync.Mutex
	m map[string]*Machine
}{m: make(map[string]*Machine)}

// CanonicalName resolves a machine name to the form MachineByName keys
// its shared models by: lower-cased, "" naming the iPSC/860, and a ":n"
// suffix rewritten as its decimal node count, or dropped when n is the
// machine's default size. Names that name one model ("", "ipsc860",
// "IPSC860", "ipsc860:8") map to one canonical name. An unknown machine
// or a malformed node count is an error.
func CanonicalName(name string) (string, error) {
	key, _, _, err := parseName(name)
	return key, err
}

// parseName resolves a machine name to its canonical name, its
// registered base name and its node count (0 = the machine's default
// size, also when the name spells that size out).
func parseName(name string) (key, base string, nodes int, err error) {
	base = strings.ToLower(name)
	if base == "" {
		base = "ipsc860"
	}
	if i := strings.IndexByte(base, ':'); i >= 0 {
		if _, err := fmt.Sscanf(base[i+1:], "%d", &nodes); err != nil || nodes <= 0 {
			return "", "", 0, fmt.Errorf("sysmodel: bad node count in %q", name)
		}
		base = base[:i]
	}
	if _, ok := machineBuilders[base]; !ok {
		return "", "", 0, fmt.Errorf("sysmodel: unknown machine %q (have %s)", name, strings.Join(MachineNames(), ", "))
	}
	if nodes > 0 {
		if def, _ := sharedModel(base, base, 0); nodes == def.MaxNodes {
			nodes = 0
		}
	}
	key = base
	if nodes > 0 {
		key = fmt.Sprintf("%s:%d", base, nodes)
	}
	return key, base, nodes, nil
}

// MachineByName returns the registered machine abstraction
// (case-insensitive; "" defaults to the iPSC/860). A ":n" suffix selects
// a larger configuration of the machine, e.g. "ipsc860:32" for a 32-node
// cube (the iPSC/860 shipped up to 128 nodes; the paper's testbed had 8).
//
// The model is characterized once per canonical name (CanonicalName) and
// shared by every caller, as the paper characterizes each SAU off-line
// once: callers must treat it, and everything it points to, as
// read-only. Build a private copy with IPSC860 or ParagonXPS to vary
// parameters.
func MachineByName(name string) (*Machine, error) {
	key, base, nodes, err := parseName(name)
	if err != nil {
		return nil, err
	}
	return sharedModel(key, base, nodes)
}

// sharedModel returns the shared model of a canonical name, building it
// on first use. Default-size models (nodes == 0) are always kept, so
// parseName can read a machine's default size from them; sized ones
// only while the registry is below sharedCap.
func sharedModel(key, base string, nodes int) (*Machine, error) {
	shared.Lock()
	defer shared.Unlock()
	if m := shared.m[key]; m != nil {
		return m, nil
	}
	m, err := buildMachine(base, nodes)
	if err != nil {
		return nil, err
	}
	if nodes == 0 || len(shared.m) < sharedCap {
		shared.m[key] = m
	}
	return m, nil
}

// buildMachine characterizes a fresh model of a registered machine.
func buildMachine(base string, nodes int) (*Machine, error) {
	if nodes > 0 && base == "ipsc860" {
		return IPSC860Sized(nodes)
	}
	m := machineBuilders[base]()
	if nodes > 0 {
		m.MaxNodes = nodes
	}
	return m, nil
}

// SharedIPSC860 returns the shared, read-only iPSC/860 model that
// MachineByName("") serves: the default machine of the interpreter and
// the simulator.
func SharedIPSC860() *Machine {
	m, err := MachineByName("")
	if err != nil {
		panic(err) // the iPSC/860 is always registered
	}
	return m
}
