package ccnic

import (
	"fmt"
	"strings"
	"testing"

	"ccnic/internal/sim"
)

func TestNewTestbedValidation(t *testing.T) {
	for _, bad := range []struct {
		cfg  Config
		want string // substring of the panic message
	}{
		{Config{Platform: "nope"}, `unknown platform "nope"`},
		// CXL is a protocol backend; the removed platform name says so.
		{Config{Platform: "CXL"}, "-protocol cxl"},
		{Config{Platform: "ICX", Queues: 17}, "17 queues exceed ICX's 16 cores"},
		{Config{Interface: Interface(99)}, ""},
	} {
		func() {
			defer func() {
				msg := recover()
				if msg == nil || !strings.Contains(fmt.Sprint(msg), bad.want) {
					t.Errorf("config %+v panicked with %v, want a panic naming %q", bad.cfg, msg, bad.want)
				}
			}()
			NewTestbed(bad.cfg)
		}()
	}
}

// TestNewTestbedOverlayThreadsBound checks that overlay forwarding threads,
// which run on the NIC socket, are bounded by its cores like queues are.
func TestNewTestbedOverlayThreadsBound(t *testing.T) {
	for _, iface := range []Interface{OverlayCCNIC, OverlayUnopt} {
		NewTestbed(Config{Platform: "ICX", Interface: iface, Queues: 2, OverlayThreads: 16})
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "64 overlay threads") || !strings.Contains(msg, "16 cores per socket") {
					t.Errorf("%v with 64 overlay threads: panic %q, want one naming 64 threads and 16 cores", iface, msg)
				}
			}()
			NewTestbed(Config{Platform: "ICX", Interface: iface, Queues: 2, OverlayThreads: 64})
		}()
	}
}

func TestInterfaceStrings(t *testing.T) {
	names := map[Interface]string{
		CCNIC:         "CC-NIC",
		UnoptUPI:      "UPI unopt",
		E810:          "E810",
		CX6:           "CX6",
		OverlayCCNIC:  "CC-NIC Overlay",
		OverlayUnopt:  "UPI unopt Overlay",
		Interface(42): "Interface(42)",
	}
	for i, want := range names {
		if got := i.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(i), got, want)
		}
	}
}

// TestAllInterfacesLoopback smoke-tests a short loopback on every interface.
func TestAllInterfacesLoopback(t *testing.T) {
	for _, iface := range []Interface{CCNIC, UnoptUPI, E810, CX6, OverlayCCNIC, OverlayUnopt} {
		iface := iface
		t.Run(iface.String(), func(t *testing.T) {
			tb := NewTestbed(Config{Platform: "ICX", Interface: iface, Queues: 2})
			res := tb.RunLoopback(LoopbackOptions{
				PktSize: 64,
				Warmup:  20 * sim.Microsecond,
				Measure: 60 * sim.Microsecond,
			})
			if res.PPS <= 0 {
				t.Fatalf("%v: zero throughput", iface)
			}
			if res.Latency.Count() == 0 {
				t.Fatalf("%v: no latency samples", iface)
			}
			if err := tb.Sys.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%v: %.1f Mpps, median %v, min %v",
				iface, res.Mpps(), res.Latency.Median(), res.Latency.Min())
		})
	}
}

// TestHeadlineOrdering verifies the paper's headline claims hold in the
// model: CC-NIC beats both PCIe NICs and the unoptimized UPI baseline on
// throughput, and has the lowest minimum latency.
func TestHeadlineOrdering(t *testing.T) {
	tput := func(iface Interface) LoopbackResult {
		tb := NewTestbed(Config{Platform: "ICX", Interface: iface, Queues: 8, HostPrefetch: true})
		return tb.RunLoopback(LoopbackOptions{
			PktSize: 64,
			Window:  128,
			Warmup:  30 * sim.Microsecond,
			Measure: 100 * sim.Microsecond,
		})
	}
	minLat := func(iface Interface) sim.Time {
		tb := NewTestbed(Config{Platform: "ICX", Interface: iface, Queues: 1, HostPrefetch: true})
		res := tb.RunLoopback(LoopbackOptions{
			PktSize: 64,
			Rate:    100_000, // far below saturation: unloaded latency
			Warmup:  30 * sim.Microsecond,
			Measure: 150 * sim.Microsecond,
		})
		return res.Latency.Median()
	}
	cc, un, e810, cx6 := tput(CCNIC), tput(UnoptUPI), tput(E810), tput(CX6)
	t.Logf("64B closed-loop Mpps (8 cores): CC-NIC %.1f, unopt %.1f, E810 %.1f, CX6 %.1f",
		cc.Mpps(), un.Mpps(), e810.Mpps(), cx6.Mpps())
	lcc, lun, le, lc := minLat(CCNIC), minLat(UnoptUPI), minLat(E810), minLat(CX6)
	t.Logf("unloaded latency: CC-NIC %v, unopt %v, E810 %v, CX6 %v", lcc, lun, le, lc)
	if cc.PPS <= un.PPS {
		t.Error("CC-NIC should out-throughput unoptimized UPI")
	}
	if cc.PPS <= e810.PPS || cc.PPS <= cx6.PPS {
		t.Error("CC-NIC should out-throughput both PCIe NICs")
	}
	if lcc >= lc {
		t.Error("CC-NIC unloaded latency should undercut the CX6")
	}
	if lcc >= lun {
		t.Error("CC-NIC unloaded latency should undercut unoptimized UPI")
	}
}

func TestSameSocketOption(t *testing.T) {
	cross := NewTestbed(Config{Interface: CCNIC, Queues: 1})
	same := NewTestbed(Config{Interface: CCNIC, Queues: 1, SameSocket: true})
	opt := LoopbackOptions{PktSize: 64, Rate: 200_000, Warmup: 20 * sim.Microsecond, Measure: 80 * sim.Microsecond}
	rc := cross.RunLoopback(opt)
	rs := same.RunLoopback(opt)
	if rs.Latency.Median() >= rc.Latency.Median() {
		t.Errorf("same-socket latency (%v) should undercut cross-UPI (%v)",
			rs.Latency.Median(), rc.Latency.Median())
	}
	t.Logf("single-thread 64B: same-socket %v vs cross-UPI %v",
		rs.Latency.Median(), rc.Latency.Median())
}
