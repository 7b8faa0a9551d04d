package coherence

import (
	"testing"

	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

func TestItoMDiscardsRemoteDirtyData(t *testing.T) {
	// A full-line overwrite of a remote-M line must not move the stale
	// data across the link (control messages only).
	plat := platform.ICX()
	harness(t, plat, func(p *sim.Proc, s *System) {
		host := s.NewAgent(0, "host")
		nic := s.NewAgent(1, "nic")
		line := s.Space().AllocLines(0, 1)
		nic.Write(p, line, 64)
		p.Sleep(sim.Microsecond)
		s.ResetCounters()
		host.Write(p, line, 64) // full line: ItoM
		st := s.Link().Stats()
		if st.DataBytes[0]+st.DataBytes[1] != 0 {
			t.Errorf("ItoM moved %d data bytes; want control-only",
				st.DataBytes[0]+st.DataBytes[1])
		}
		if s.Counters(0).RemoteRFO != 1 {
			t.Errorf("RFO count = %d, want 1", s.Counters(0).RemoteRFO)
		}
	})
}

func TestCommitReadRaceTwoReaders(t *testing.T) {
	// Two agents fetch the same remote-dirty line with overlapping
	// in-flight windows; commit-at-completion must keep the directory
	// consistent (exactly one M copy or consistent sharers).
	plat := platform.ICX()
	k := sim.New()
	s := NewSystem(k, plat)
	writer := s.NewAgent(1, "writer")
	r1 := s.NewAgent(0, "r1")
	r2 := s.NewAgent(0, "r2")
	line := s.Space().AllocLines(0, 1)
	k.Spawn("writer", func(p *sim.Proc) {
		writer.Write(p, line, 64)
	})
	k.Spawn("r1", func(p *sim.Proc) {
		p.Sleep(500 * sim.Nanosecond)
		r1.Read(p, line, 64)
	})
	k.Spawn("r2", func(p *sim.Proc) {
		p.Sleep(505 * sim.Nanosecond) // overlaps r1's in-flight fetch
		r2.Read(p, line, 64)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after racing reads: %v", err)
	}
}

func TestPendingStoreStallsReader(t *testing.T) {
	// A read issued while the owner's store is still committing must wait
	// for the commit plus its own transfer — the serialization that makes
	// separate-line producer-consumer hops cost two crossings (Fig 8).
	plat := platform.ICX()
	k := sim.New()
	s := NewSystem(k, plat)
	host := s.NewAgent(0, "host")
	nic := s.NewAgent(1, "nic")
	line := s.Space().AllocLines(0, 1)
	var readLat sim.Time
	k.Spawn("nic", func(p *sim.Proc) {
		nic.Read(p, line, 64) // NIC owns the line
		p.Sleep(100 * sim.Nanosecond)
		p.Sleep(2 * sim.Microsecond)
	})
	k.Spawn("host", func(p *sim.Proc) {
		p.Sleep(200 * sim.Nanosecond)
		host.WriteAsync(p, line, 8) // in-flight RFO
		// NIC reads immediately: must stall behind the commit.
	})
	k.Spawn("reader", func(p *sim.Proc) {
		p.Sleep(220 * sim.Nanosecond)
		readLat = nic.Read(p, line, 64)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if readLat <= plat.RemoteRH {
		t.Errorf("read during pending store = %v, want > one transfer (%v)", readLat, plat.RemoteRH)
	}
}

func TestDeviceLineHelpers(t *testing.T) {
	plat := platform.ICX()
	harness(t, plat, func(p *sim.Proc, s *System) {
		host := s.NewAgent(0, "host")
		line := s.Space().AllocLines(0, 1)
		host.Write(p, line, 64)
		// DMA write with DDIO: host copy invalidated, LLC owns.
		s.DeviceWriteLine(line, 0)
		if got := host.Read(p, line, 64); got != plat.LLCHit {
			t.Errorf("read after DDIO write = %v, want LLC hit %v", got, plat.LLCHit)
		}
		// DMA read demotes a dirty CPU copy to shared.
		line2 := s.Space().AllocLines(0, 1)
		host.Write(p, line2, 64)
		s.DeviceReadLine(line2)
		if got := host.Write(p, line2, 8); got != plat.L2Hit {
			t.Errorf("rewrite after DMA-read demote = %v, want silent upgrade %v", got, plat.L2Hit)
		}
		// No-ops on unknown lines must not panic.
		s.DeviceReadLine(s.Space().AllocLines(1, 1))
	})
}
