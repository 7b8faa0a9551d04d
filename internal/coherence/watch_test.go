package coherence

import (
	"testing"

	"ccnic/internal/fault"
	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// watchWorld has a NIC agent write one host-homed line (other, which it
// then owns) and poll another, so the polled line is the most recent in
// its L2, and doze on it through Agent.WatchPoll; at 2 µs
// act runs on a second process, and the world reports whether the doze
// was armed and whether it was still dozing after act.
func watchWorld(t *testing.T, proto Protocol, act func(p *sim.Proc, s *System, host, nic *Agent, line, other mem.Addr)) (armed, dozing bool) {
	t.Helper()
	k := sim.New()
	s := NewSystemProto(k, platform.ICX(), proto)
	host, nic := s.NewAgent(0, "host"), s.NewAgent(1, "nic")
	line, other := s.Space().AllocLines(0, 1), s.Space().AllocLines(0, 1)
	d := sim.Doze{Issue: sim.Nanosecond, Gap: sim.Nanosecond}
	k.Spawn("poller", func(p *sim.Proc) {
		nic.Write(p, other, 8)
		nic.Poll(p, line, 8)
		first := true
		p.Spin(0, func() (sim.Time, bool) {
			if !first {
				return 0, false
			}
			first = false
			armed = nic.WatchPoll(line, &d) && p.Doze(&d, sim.Never)
			return d.Gap, true
		})
	})
	k.Spawn("actor", func(p *sim.Proc) {
		p.Sleep(2 * sim.Microsecond)
		if armed && !d.Dozing() {
			t.Errorf("the doze ended before the act")
		}
		act(p, s, host, nic, line, other)
		dozing = d.Dozing()
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return armed, dozing
}

// Every change to the NIC agent's L2 recency list ends a doze armed
// through WatchPoll — the producer's store invalidating the polled line,
// another access through the agent, a fill, another agent's read or store
// of a line the agent holds — and nothing else does.
func TestWatchPollFires(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fires bool
		act   func(p *sim.Proc, s *System, host, nic *Agent, line, other mem.Addr)
	}{
		{"host store to the polled line", true, func(p *sim.Proc, s *System, host, nic *Agent, line, other mem.Addr) {
			host.Write(p, line, 8)
		}},
		{"hit on another line through the agent", true, func(p *sim.Proc, s *System, host, nic *Agent, line, other mem.Addr) {
			nic.Read(p, other, 8)
		}},
		{"miss through the agent", true, func(p *sim.Proc, s *System, host, nic *Agent, line, other mem.Addr) {
			nic.Read(p, s.Space().AllocLines(0, 1), 8)
		}},
		{"host read of a line the agent owns", true, func(p *sim.Proc, s *System, host, nic *Agent, line, other mem.Addr) {
			host.Read(p, other, 8)
		}},
		{"host store to a line the agent owns", true, func(p *sim.Proc, s *System, host, nic *Agent, line, other mem.Addr) {
			host.Write(p, other, 8)
		}},
		{"host traffic the agent never held", false, func(p *sim.Proc, s *System, host, nic *Agent, line, other mem.Addr) {
			a := s.Space().AllocLines(0, 1)
			host.Write(p, a, 8)
			host.Read(p, a, 8)
		}},
	} {
		for _, proto := range []Protocol{ProtoUPI, ProtoCXL} {
			armed, dozing := watchWorld(t, proto, tc.act)
			if !armed {
				t.Fatalf("%s/%v: WatchPoll declined on the most recent line", tc.name, proto)
			}
			if dozing == tc.fires {
				t.Errorf("%s/%v: still dozing %v after the act, want %v", tc.name, proto, dozing, !tc.fires)
			}
		}
	}
}

// WatchPoll declines unless the polled line is the L2's most recent, with
// no validation probe installed and no fault plan armed, and while another
// process's doze holds the agent's watch.
func TestWatchPollDeclines(t *testing.T) {
	k := sim.New()
	s := NewSystem(k, platform.ICX())
	nic := s.NewAgent(1, "nic")
	line, other := s.Space().AllocLines(0, 1), s.Space().AllocLines(0, 1)
	var first, second sim.Doze
	k.Spawn("poller", func(p *sim.Proc) {
		nic.Poll(p, line, 8)
		nic.Read(p, other, 8)
		if nic.WatchPoll(line, &first) {
			t.Error("WatchPoll armed on a line that is not the most recent")
		}
		nic.Poll(p, line, 8)
		s.SetProbe(nopProbe{})
		if nic.WatchPoll(line, &first) {
			t.Error("WatchPoll armed under a validation probe")
		}
		s.SetProbe(nil)
		plan := &fault.Plan{Seed: 1}
		plan.Rate[fault.CachePressure] = 0.1
		s.SetFaults(fault.NewInjector(plan))
		if nic.WatchPoll(line, &first) {
			t.Error("WatchPoll armed under a fault plan")
		}
		s.SetFaults(nil)
		p.Spin(0, func() (sim.Time, bool) {
			if !nic.WatchPoll(line, &first) || !p.Doze(&first, sim.Never) {
				t.Error("WatchPoll declined on the most recent line")
			}
			if nic.WatchPoll(line, &second) {
				t.Error("a second doze took the agent's watch from a dozing one")
			}
			return 0, false
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

type nopProbe struct{}

func (nopProbe) LineEvent(mem.Addr)    {}
func (nopProbe) ObjectEvent(Checkable) {}
func (nopProbe) Fail(error)            {}
