package platform

import (
	"strings"
	"testing"

	"ccnic/internal/sim"
)

func TestICXMatchesPaperFig7(t *testing.T) {
	p := ICX()
	cases := []struct {
		name string
		got  sim.Time
		want sim.Time
	}{
		{"LocalDRAM", p.LocalDRAM, 72 * sim.Nanosecond},
		{"RemoteDRAM", p.RemoteDRAM, 144 * sim.Nanosecond},
		{"LocalFwd", p.LocalFwd, 48 * sim.Nanosecond},
		{"RemoteRH", p.RemoteRH, 114 * sim.Nanosecond},
		{"RemoteLH", p.RemoteLH, 119 * sim.Nanosecond},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("ICX %s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestSPRMatchesPaperFig7(t *testing.T) {
	p := SPR()
	cases := []struct {
		name string
		got  sim.Time
		want sim.Time
	}{
		{"LocalDRAM", p.LocalDRAM, 108 * sim.Nanosecond},
		{"RemoteDRAM", p.RemoteDRAM, 191 * sim.Nanosecond},
		{"LocalFwd", p.LocalFwd, 82 * sim.Nanosecond},
		{"RemoteRH", p.RemoteRH, 171 * sim.Nanosecond},
		{"RemoteLH", p.RemoteLH, 174 * sim.Nanosecond},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("SPR %s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestPlatformSanity(t *testing.T) {
	for _, p := range []*Platform{ICX(), SPR()} {
		if p.CoresPerSocket <= 0 || p.L2Bytes <= 0 || p.LLCBytes <= p.L2Bytes {
			t.Errorf("%s: nonsensical core/cache sizes", p.Name)
		}
		// Latency ordering invariants from the paper's Fig 7 discussion.
		if !(p.L2Hit < p.LLCHit && p.LLCHit < p.LocalFwd && p.LocalFwd < p.LocalDRAM) {
			t.Errorf("%s: local latency ordering broken", p.Name)
		}
		if !(p.RemoteRH < p.RemoteLH) {
			t.Errorf("%s: rh must be faster than lh (speculative home read)", p.Name)
		}
		if !(p.RemoteRH < p.RemoteDRAM) {
			t.Errorf("%s: remote cache hit must beat remote DRAM", p.Name)
		}
		if p.UPIBandwidth <= 0 || p.PCIe.LinkBandwidth <= 0 {
			t.Errorf("%s: missing bandwidths", p.Name)
		}
		// UPI must outrun the PCIe slot (the premise of the paper's testbed).
		if p.UPIBandwidth <= p.PCIe.LinkBandwidth {
			t.Errorf("%s: UPI (%v B/ns) should exceed PCIe (%v B/ns)",
				p.Name, p.UPIBandwidth, p.PCIe.LinkBandwidth)
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("ICX") == nil || ByName("spr") == nil {
		t.Error("known names returned nil")
	}
	for _, tc := range []struct{ name, want string }{
		{"nope", "ICX or SPR"},
		// CXL is a protocol backend, not a platform.
		{"CXL", "-protocol cxl"},
		{"cxl", "-protocol cxl"},
	} {
		if ByName(tc.name) != nil {
			t.Errorf("ByName(%q) should return nil", tc.name)
		}
		if _, err := Lookup(tc.name); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Lookup(%q) error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

func TestDerate(t *testing.T) {
	p := SPR()
	q := p.Derate(1.5, 0.4)
	if q.RemoteDRAM != sim.Time(float64(p.RemoteDRAM)*1.5) {
		t.Errorf("remote DRAM not scaled: %v", q.RemoteDRAM)
	}
	if q.UPIBandwidth != p.UPIBandwidth*0.4 {
		t.Errorf("bandwidth not scaled: %v", q.UPIBandwidth)
	}
	// Local paths scale at half strength.
	wantLLC := sim.Time(float64(p.LLCHit) * 1.25)
	if q.LLCHit != wantLLC {
		t.Errorf("LLC hit = %v, want %v", q.LLCHit, wantLLC)
	}
	// Original must be untouched.
	if p.UPIBandwidth != 127.5 {
		t.Error("Derate mutated the original")
	}
	if q.RemoteAccess() != q.RemoteDRAM {
		t.Error("RemoteAccess should report remote DRAM latency")
	}
}

func TestNICParams(t *testing.T) {
	e, c := E810(), CX6()
	// The paper's measured peak rates: E810 192 Mpps, CX6 76 Mpps.
	ppsE := 1e3 / e.PerPacket.Nanoseconds() // Mpps
	ppsC := 1e3 / c.PerPacket.Nanoseconds()
	if ppsE < 180 || ppsE > 200 {
		t.Errorf("E810 peak = %.0f Mpps, want ~192", ppsE)
	}
	if ppsC < 70 || ppsC > 82 {
		t.Errorf("CX6 peak = %.0f Mpps, want ~76", ppsC)
	}
	// CX6 is the low-latency device; E810 the high-rate one.
	if c.PipelineLat >= e.PipelineLat {
		t.Error("CX6 pipeline latency should undercut E810")
	}
	if !c.MMIODesc || e.MMIODesc {
		t.Error("only CX6 supports the MMIO descriptor path")
	}
}

// TestCXLAttachRange checks the CXL backend's calibration: a CXL.mem read
// sits in the CXL Consortium's expected 170-250ns access range on both
// platforms.
func TestCXLAttachRange(t *testing.T) {
	for _, p := range []*Platform{ICX(), SPR()} {
		if r := p.CXL.MemRead; r < 170*sim.Nanosecond || r > 250*sim.Nanosecond {
			t.Errorf("%s CXL.mem read = %v, want within 170-250ns", p.Name, r)
		}
	}
}
