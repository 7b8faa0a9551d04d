package interconn

import (
	"testing"
	"testing/quick"

	"ccnic/internal/sim"
)

func TestSerializationTime(t *testing.T) {
	l := newUPI(64, 16, 16) // 64 B/ns
	// 64B payload + 16B header = 80B => 1.25ns occupancy.
	d1 := l.Data(0, ToNIC, 64)
	if d1 != 0 {
		t.Errorf("first transfer queued %v, want 0", d1)
	}
	// Immediately-following transfer must queue behind the first.
	d2 := l.Data(0, ToNIC, 64)
	want := sim.Time(1.25 * float64(sim.Nanosecond))
	if d2 != want {
		t.Errorf("second transfer delay = %v, want %v", d2, want)
	}
}

func TestDirectionsAreIndependent(t *testing.T) {
	l := newUPI(10, 0, 16)
	l.Data(0, ToNIC, 1000) // occupies ToNIC for 100ns
	if d := l.Data(0, ToHost, 10); d != 0 {
		t.Errorf("reverse direction queued %v, want 0", d)
	}
	if d := l.Data(0, ToNIC, 10); d != 100*sim.Nanosecond {
		t.Errorf("same direction queued %v, want 100ns", d)
	}
}

func TestCtrlMessagesConsumeLink(t *testing.T) {
	l := newUPI(16, 16, 16)
	l.Ctrl(0, ToNIC) // 16B @ 16 B/ns = 1ns
	if d := l.Ctrl(0, ToNIC); d != sim.Nanosecond {
		t.Errorf("ctrl delay = %v, want 1ns", d)
	}
	st := l.Stats()
	if st.Messages[ToNIC] != 2 || st.WireBytes[ToNIC] != 32 || st.DataBytes[ToNIC] != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWeightedPenalty(t *testing.T) {
	l := newUPI(100, 0, 16)
	l.Weighted(0, ToNIC, 100, 1.8)
	st := l.Stats()
	if st.DataBytes[ToNIC] != 100 {
		t.Errorf("data bytes = %d", st.DataBytes[ToNIC])
	}
	if st.WireBytes[ToNIC] != 180 {
		t.Errorf("wire bytes = %d, want 180", st.WireBytes[ToNIC])
	}
}

func TestUtilizationAndBacklog(t *testing.T) {
	l := newUPI(64, 0, 16)
	l.Data(0, ToNIC, 640) // 10ns
	if u := l.Utilization(ToNIC, 20*sim.Nanosecond); u != 0.5 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
	if b := l.Backlog(ToNIC, 4*sim.Nanosecond); b != 6*sim.Nanosecond {
		t.Errorf("backlog = %v, want 6ns", b)
	}
	if b := l.Backlog(ToNIC, 50*sim.Nanosecond); b != 0 {
		t.Errorf("backlog after drain = %v, want 0", b)
	}
	l.ResetStats()
	if l.Stats() != (Stats{}) {
		t.Error("ResetStats did not clear stats")
	}
	if l.Utilization(ToNIC, 0) != 0 {
		t.Error("utilization at t=0 should be 0")
	}
}

func TestDirFromTo(t *testing.T) {
	if DirFromTo(0, 1) != ToNIC || DirFromTo(1, 0) != ToHost {
		t.Error("DirFromTo mapping wrong")
	}
	if ToNIC.Opposite() != ToHost || ToHost.Opposite() != ToNIC {
		t.Error("Opposite mapping wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("same-socket DirFromTo should panic")
		}
	}()
	DirFromTo(1, 1)
}

func TestNewValidatesBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero bandwidth should panic")
		}
	}()
	newUPI(0, 16, 16)
}

// Property: total delay experienced by a back-to-back burst equals the sum
// of serialization times of everything ahead of it, i.e. the link conserves
// time (no transfer is lost or overlapped within one direction).
func TestLinkConservation(t *testing.T) {
	f := func(sizes []uint8) bool {
		l := newUPI(1, 0, 16) // 1 B/ns: occupancy == bytes in ns
		var expectBusy sim.Time
		for _, s := range sizes {
			b := int(s)
			delay := l.Data(0, ToNIC, b)
			if delay != expectBusy {
				return false
			}
			expectBusy += sim.Time(b) * sim.Nanosecond
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// newUPI builds a UPI-labeled link with the given per-direction bandwidth
// (bytes/ns), per-flit header overhead and control-message size.
func newUPI(bytesPerNs float64, header, ctrlMsg int) *Link {
	return NewWithProfile(Profile{Name: "UPI", WireBW: bytesPerNs, Header: header, CtrlMsg: ctrlMsg})
}
