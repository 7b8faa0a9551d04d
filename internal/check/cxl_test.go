package check_test

import (
	"strings"
	"testing"

	"ccnic/internal/check"
	"ccnic/internal/coherence"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// cxlSystem builds a CXL-backend system with the engine attached in collect
// mode and an aggressive full-scan cadence.
func cxlSystem(t *testing.T) (*sim.Kernel, *coherence.System, *check.Engine) {
	t.Helper()
	k := sim.New()
	sys := coherence.NewSystemProto(k, platform.ICX(), coherence.ProtoCXL)
	e := check.Attach(sys)
	e.SetCollect(true)
	e.SetFullEvery(1)
	return k, sys, e
}

// TestCXLCleanRunHasNoViolations: the engine's CXL probes (snoop filter,
// bias) stay silent on a correct protocol exercising every interesting
// transition class.
func TestCXLCleanRunHasNoViolations(t *testing.T) {
	k, sys, e := cxlSystem(t)
	h := sys.NewAgent(0, "h")
	n := sys.NewAgent(1, "n")
	hostLine := sys.Space().AllocLines(0, 1)
	hdmLine := sys.Space().AllocLines(1, 1)
	k.Spawn("clean", func(p *sim.Proc) {
		// Device caching of host memory through the snoop filter.
		n.Read(p, hostLine, 64)
		n.Write(p, hostLine, 64)
		h.Read(p, hostLine, 64)
		h.Write(p, hostLine, 64)
		// HDM bias flips in both directions.
		h.Read(p, hdmLine, 64)
		n.Write(p, hdmLine, 64)
		h.Write(p, hdmLine, 64)
		n.Read(p, hdmLine, 64)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.Violations()) != 0 {
		t.Fatalf("clean CXL run reported violations: %v", e.Violations())
	}
	if e.Checks() == 0 {
		t.Fatal("engine performed no checks")
	}
}

// TestMutationCXLSnoopDropDetected is the CXL self-test: suppress the snoop
// filter's recording of a device fill and assert the engine catches the
// filter/directory mismatch — proving the filter probe can actually fail.
func TestMutationCXLSnoopDropDetected(t *testing.T) {
	k, sys, e := cxlSystem(t)
	sys.SetMutation(coherence.MutateCXLSnoopDrop)
	h := sys.NewAgent(0, "h")
	n := sys.NewAgent(1, "n")
	line := sys.Space().AllocLines(0, 1)
	k.Spawn("mut", func(p *sim.Proc) {
		n.Read(p, line, 64) // device fill is never recorded in the filter
		h.Read(p, line, 64)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.Violations()) == 0 {
		t.Fatal("CXL snoop-drop mutation went undetected")
	}
	msg := e.Violations()[0].Error()
	if !strings.Contains(msg, "snoop filter") {
		t.Errorf("diagnostic %q does not identify the snoop filter", msg)
	}
	if !strings.Contains(msg, "0x") || !strings.Contains(msg, "t=") {
		t.Errorf("diagnostic %q lacks a line address or timestamp", msg)
	}
}

// TestMutationCXLSnoopDropCorrupts proves the defect is real corruption,
// not bookkeeping drift: with the filter stale, a host RFO trusts the
// absent entry, skips the device snoop, and leaves a stale device copy the
// full-scan pass reports as unknown to the directory.
func TestMutationCXLSnoopDropCorrupts(t *testing.T) {
	k, sys, e := cxlSystem(t)
	e.SetFullEvery(1 << 30) // only the end-of-run scan: let the damage land
	sys.SetMutation(coherence.MutateCXLSnoopDrop)
	h := sys.NewAgent(0, "h")
	n := sys.NewAgent(1, "n")
	line := sys.Space().AllocLines(0, 1)
	k.Spawn("mut", func(p *sim.Proc) {
		n.Read(p, line, 64)  // unrecorded device copy
		h.Write(p, line, 64) // filter says absent: the device is never snooped
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckInvariants(); err == nil {
		t.Fatal("stale device copy survived undetected by the full scan")
	} else if !strings.Contains(err.Error(), "unknown to directory") &&
		!strings.Contains(err.Error(), "snoop filter") {
		t.Errorf("unexpected diagnostic: %v", err)
	}
}

// TestMutationCXLBiasLeakDetected: a device reclaim that flips an HDM line
// to device bias without flushing the host's copy leaves a stale host line
// the directory no longer tracks, which the engine's full scan must report.
func TestMutationCXLBiasLeakDetected(t *testing.T) {
	k, sys, e := cxlSystem(t)
	sys.SetMutation(coherence.MutateCXLBiasLeak)
	h := sys.NewAgent(0, "h")
	n := sys.NewAgent(1, "n")
	line := sys.Space().AllocLines(1, 1)
	k.Spawn("mut", func(p *sim.Proc) {
		h.Read(p, line, 64) // host copy flips the line to host bias
		n.Read(p, line, 8)  // reclaim flips bias but leaks the host copy
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.Violations()) == 0 {
		t.Fatal("CXL bias-leak mutation went undetected")
	}
	msg := e.Violations()[0].Error()
	if !strings.Contains(msg, "unknown to directory") {
		t.Errorf("diagnostic %q does not identify the stale host copy", msg)
	}
	if !strings.Contains(msg, "0x") || !strings.Contains(msg, "t=") {
		t.Errorf("diagnostic %q lacks a line address or timestamp", msg)
	}
}
