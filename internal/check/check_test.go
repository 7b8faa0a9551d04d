package check_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"ccnic/internal/check"
	"ccnic/internal/cluster"
	"ccnic/internal/coherence"
	"ccnic/internal/device"
	"ccnic/internal/fabric"
	"ccnic/internal/loopback"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// testbed builds a system + CC-NIC UPI device for loopback runs.
func testbed(queues int) (*coherence.System, *device.UPI, []*coherence.Agent) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	sys.SetPrefetch(0, true)
	var hosts, nics []*coherence.Agent
	for i := 0; i < queues; i++ {
		hosts = append(hosts, sys.NewAgent(0, "h"))
		nics = append(nics, sys.NewAgent(1, "n"))
	}
	dev := device.NewUPI("upi", sys, device.CCNICConfig(), hosts, nics)
	return sys, dev, hosts
}

func shortRun(sys *coherence.System, dev *device.UPI, hosts []*coherence.Agent) loopback.Result {
	return loopback.Run(loopback.Config{
		Sys: sys, Dev: dev, Hosts: hosts,
		PktSize: 64,
		Warmup:  10 * sim.Microsecond, Measure: 40 * sim.Microsecond,
	})
}

// TestEngineIsReadOnly proves the engine observes without perturbing: a
// checked run must produce bit-identical results to an unchecked one.
func TestEngineIsReadOnly(t *testing.T) {
	sys, dev, hosts := testbed(2)
	plain := shortRun(sys, dev, hosts)

	sys2, dev2, hosts2 := testbed(2)
	e := check.Attach(sys2)
	checked := shortRun(sys2, dev2, hosts2)

	if plain.PPS != checked.PPS || plain.Gbps != checked.Gbps {
		t.Errorf("engine perturbed throughput: %v/%v vs %v/%v",
			plain.PPS, plain.Gbps, checked.PPS, checked.Gbps)
	}
	if plain.Latency.Count() != checked.Latency.Count() ||
		plain.Latency.Median() != checked.Latency.Median() {
		t.Errorf("engine perturbed latency: %d/%v vs %d/%v",
			plain.Latency.Count(), plain.Latency.Median(),
			checked.Latency.Count(), checked.Latency.Median())
	}
	if len(e.Violations()) != 0 {
		t.Fatalf("clean run reported violations: %v", e.Violations())
	}
}

// TestRunEndFlushesTotals: a completed checked run contributes to the
// package totals ccbench -check reports.
func TestRunEndFlushesTotals(t *testing.T) {
	engines, checks := check.TotalEngines(), check.TotalChecks()
	sys, dev, hosts := testbed(1)
	check.Attach(sys)
	shortRun(sys, dev, hosts)
	if check.TotalEngines() != engines+1 {
		t.Errorf("TotalEngines = %d, want %d", check.TotalEngines(), engines+1)
	}
	if check.TotalChecks() <= checks {
		t.Error("TotalChecks did not grow")
	}
}

// TestFabricRunEndFlushesTotals: every check a fabric engine makes in a
// cluster run reaches the package totals, and each engine counts once its
// switch kernel has ended a run, as Engine does.
func TestFabricRunEndFlushesTotals(t *testing.T) {
	c := cluster.New(cluster.Config{Hosts: 3, Workers: 2, Reliable: true, Switches: 2})
	defer c.Close()
	engines, checks := check.TotalEngines(), check.TotalChecks()
	var fes []*check.FabricEngine
	for _, sw := range c.Switches {
		fes = append(fes, check.AttachFabric(sw))
	}
	if got := check.TotalEngines(); got != engines {
		t.Errorf("attaching counted %d engines before any run", got-engines)
	}
	if err := c.Run(40 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, e := range fes {
		want += e.Checks()
	}
	if want == 0 {
		t.Fatal("the run made no fabric checks")
	}
	if got := check.TotalChecks() - checks; got != want {
		t.Errorf("TotalChecks grew by %d, want the engines' %d checks", got, want)
	}
	if got := check.TotalEngines() - engines; got != uint64(len(fes)) {
		t.Errorf("TotalEngines grew by %d, want %d", got, len(fes))
	}
}

// TestEnableAuto: systems created after EnableAuto get an engine without
// explicit plumbing.
func TestEnableAuto(t *testing.T) {
	check.EnableAuto()
	defer func() { coherence.AutoAttach, fabric.AutoAttach = nil, nil }()
	sys := coherence.NewSystem(sim.New(), platform.ICX())
	if sys.Probe() == nil {
		t.Fatal("EnableAuto did not install a probe on a new system")
	}
}

// TestMutationStaleMigrationDetected is the engine's self-test: break
// migratory dirty forwarding (ownership migrates without invalidating the
// previous owner) and assert the full-scan pass catches the stale Modified
// copy, naming the offending line and the simulated timestamp.
func TestMutationStaleMigrationDetected(t *testing.T) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	e := check.Attach(sys)
	e.SetCollect(true)
	e.SetFullEvery(1)
	sys.SetMutation(coherence.MutateStaleMigration)

	h := sys.NewAgent(0, "h")
	n := sys.NewAgent(1, "n")
	line := sys.Space().AllocLines(0, 1)
	k.Spawn("mut", func(p *sim.Proc) {
		n.Write(p, line, 64) // n owns the line Modified
		h.Read(p, line, 64)  // migratory read leaves n's copy stale
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.Violations()) == 0 {
		t.Fatal("stale-migration mutation went undetected")
	}
	msg := e.Violations()[0].Error()
	if !strings.Contains(msg, "unknown to directory") {
		t.Errorf("diagnostic %q does not identify the stale copy", msg)
	}
	if !strings.Contains(msg, "0x") {
		t.Errorf("diagnostic %q does not name the offending line", msg)
	}
	if !strings.Contains(msg, "t=") {
		t.Errorf("diagnostic %q does not carry the simulated timestamp", msg)
	}
}

// TestCorruptSharerSetDetected: duplicating a directory sharer entry is
// caught by the cheap per-line check on the very next access.
func TestCorruptSharerSetDetected(t *testing.T) {
	k := sim.New()
	sys := coherence.NewSystem(k, platform.ICX())
	e := check.Attach(sys)
	e.SetCollect(true)

	h := sys.NewAgent(0, "h")
	n := sys.NewAgent(1, "n")
	line := sys.Space().AllocLines(0, 1)
	k.Spawn("corrupt", func(p *sim.Proc) {
		h.Read(p, line, 64)
		n.Read(p, line, 64) // both now share the line
		if !sys.CorruptSharerSetForTest(line) {
			t.Error("corruption found no sharer to duplicate")
			return
		}
		h.Read(p, line, 64) // L2 hit fires the line probe
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range e.Violations() {
		if strings.Contains(v.Error(), "duplicate sharer") {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupted sharer set went undetected; violations: %v", e.Violations())
	}
}

// TestViolationPanics: outside collect mode a violation surfaces as a typed
// panic that wraps the underlying error.
func TestViolationPanics(t *testing.T) {
	sys := coherence.NewSystem(sim.New(), platform.ICX())
	check.Attach(sys)
	root := errors.New("boom")
	defer func() {
		r := recover()
		v, ok := r.(*check.Violation)
		if !ok {
			t.Fatalf("recovered %T, want *check.Violation", r)
		}
		if !errors.Is(v, root) {
			t.Errorf("violation does not wrap the root error: %v", v)
		}
		if !strings.Contains(v.Error(), "t=") {
			t.Errorf("violation %q lacks a timestamp", v)
		}
	}()
	sys.Probe().Fail(root)
	t.Fatal("Fail did not panic")
}

// TestFinishedRunReleasesSystem checks that a finished checked run leaves
// its System collectable. The engine is the kernel's probe and reaches the
// whole System, so any coroutine the kernel kept parked past the run would
// pin every line table through it. The System sits in reference cycles, so
// a finalizer on it would never run; the finalizer goes on its platform
// parameters instead, a leaf that only the simulation reaches.
func TestFinishedRunReleasesSystem(t *testing.T) {
	collected := make(chan struct{})
	func() {
		sys, dev, hosts := testbed(2)
		check.Attach(sys)
		shortRun(sys, dev, hosts)
		runtime.SetFinalizer(sys.Platform(), func(*platform.Platform) { close(collected) })
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the System is still reachable after its run finished")
}
