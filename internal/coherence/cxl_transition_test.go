package coherence

import (
	"fmt"
	"testing"

	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// cxlHarness runs fn on a CXL-backend system inside a single simulated
// process, then asserts the global invariants (including the CXL backend's
// snoop-filter and bias checks).
func cxlHarness(t *testing.T, plat *platform.Platform, fn func(p *sim.Proc, s *System)) *System {
	t.Helper()
	k := sim.New()
	s := NewSystemProto(k, plat, ProtoCXL)
	k.Spawn("test", func(p *sim.Proc) { fn(p, s) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
	return s
}

// TestCXLTransitionTable is the CXL analogue of TestTransitionTable: for
// every reachable initial placement of a line and every host-requester event
// it asserts the requester's final cache state, the directory composition,
// the interconnect crossings, writebacks, the latency the requester paid
// (at the CXL latency points), and the protocol-private state the
// UPI backend does not have — the host snoop filter (host-homed lines) and
// the bias state (device-homed HDM lines).
//
// The two structural departures from the MESIF table are pinned here:
// demand reads of a Modified line demote the holder to Shared instead of
// migrating ownership, and the both-shared placement is unreachable for HDM
// lines because the device's setup read reclaims the line to device bias,
// flushing the host's copy first.
func TestCXLTransitionTable(t *testing.T) {
	plat := platform.ICX()
	cx := plat.CXL
	type expect struct {
		state    State // requester's final L2 state
		owner    rune  // directory owner after the event: R or 0
		sharers  int
		read     int         // RemoteRead delta on the requester's socket
		rfo      int         // RemoteRFO delta on the requester's socket
		data     bool        // a full line crossed the link during the event
		peerGone bool        // the peer that held the line lost it
		wb0, wb1 int         // Writebacks deltas by socket
		filter   FilterState // home-0 lines: snoop filter after the event
		bias     BiasState   // home-1 lines: bias after the event
		lat      sim.Time    // requester latency (a prefetch costs nothing)
	}
	type event struct {
		name string
		run  func(p *sim.Proc, r *Agent, line mem.Addr) sim.Time
	}
	events := []event{
		{"read", func(p *sim.Proc, r *Agent, line mem.Addr) sim.Time { return r.Read(p, line, 8) }},
		{"write", func(p *sim.Proc, r *Agent, line mem.Addr) sim.Time { return r.Write(p, line, 8) }},
		{"fullwrite", func(p *sim.Proc, r *Agent, line mem.Addr) sim.Time { return r.Write(p, line, mem.LineSize) }},
		{"prefetch", func(p *sim.Proc, r *Agent, line mem.Addr) sim.Time { r.SoftPrefetch(line); return 0 }},
	}
	type placement struct {
		name  string
		setup func(p *sim.Proc, r, lp, n *Agent, line mem.Addr)
		want  [2][4]expect // [home][event]
	}
	placements := []placement{
		{
			name:  "invalid",
			setup: func(p *sim.Proc, r, lp, n *Agent, line mem.Addr) {},
			want: [2][4]expect{
				{
					{state: Shared, sharers: 1, lat: plat.LocalDRAM},
					{state: Modified, owner: 'R', lat: plat.LocalDRAM},
					{state: Modified, owner: 'R', lat: plat.LLCHit},
					{state: Shared, sharers: 1},
				},
				{
					// CXL.mem reads of HDM resolve at the device's DCOH.
					{state: Shared, sharers: 1, read: 1, data: true, bias: HostBias, lat: cx.MemRead},
					{state: Modified, owner: 'R', rfo: 1, data: true, bias: HostBias, lat: cx.MemRead},
					// The CXL ItoM analogue: ownership grant, no data fetch.
					{state: Modified, owner: 'R', rfo: 1, bias: HostBias, lat: cx.Inval},
					{state: Shared, sharers: 1, read: 1, data: true, bias: HostBias},
				},
			},
		},
		{
			name:  "self-shared",
			setup: func(p *sim.Proc, r, lp, n *Agent, line mem.Addr) { r.Read(p, line, 8) },
			want: [2][4]expect{
				{
					{state: Shared, sharers: 1, lat: plat.L2Hit},
					{state: Modified, owner: 'R', lat: plat.L2Hit}, // sole sharer: silent upgrade
					{state: Modified, owner: 'R', lat: plat.L2Hit},
					{state: Shared, sharers: 1}, // already resident: no-op
				},
				{
					{state: Shared, sharers: 1, bias: HostBias, lat: plat.L2Hit},
					{state: Modified, owner: 'R', bias: HostBias, lat: plat.L2Hit},
					{state: Modified, owner: 'R', bias: HostBias, lat: plat.L2Hit},
					{state: Shared, sharers: 1, bias: HostBias},
				},
			},
		},
		{
			name:  "self-modified",
			setup: func(p *sim.Proc, r, lp, n *Agent, line mem.Addr) { r.Write(p, line, 8) },
			want: [2][4]expect{
				{
					{state: Modified, owner: 'R', lat: plat.L2Hit},
					{state: Modified, owner: 'R', lat: plat.L2Hit},
					{state: Modified, owner: 'R', lat: plat.L2Hit},
					{state: Modified, owner: 'R'},
				},
				{
					{state: Modified, owner: 'R', bias: HostBias, lat: plat.L2Hit},
					{state: Modified, owner: 'R', bias: HostBias, lat: plat.L2Hit},
					{state: Modified, owner: 'R', bias: HostBias, lat: plat.L2Hit},
					{state: Modified, owner: 'R', bias: HostBias},
				},
			},
		},
		{
			name:  "local-peer-modified",
			setup: func(p *sim.Proc, r, lp, n *Agent, line mem.Addr) { lp.Write(p, line, 8) },
			want: [2][4]expect{
				{
					// No migration: the peer is demoted to Shared in place.
					{state: Shared, sharers: 2, lat: plat.LocalFwd},
					{state: Modified, owner: 'R', peerGone: true, lat: plat.LocalFwd},
					{state: Modified, owner: 'R', peerGone: true, lat: plat.LLCHit},
					{state: Shared, sharers: 2},
				},
				{
					// Dirty HDM data written back across the link on demote.
					{state: Shared, sharers: 2, wb0: 1, bias: HostBias, lat: plat.LocalFwd},
					{state: Modified, owner: 'R', peerGone: true, bias: HostBias, lat: plat.LocalFwd},
					{state: Modified, owner: 'R', peerGone: true, bias: HostBias, lat: plat.LLCHit},
					{state: Shared, sharers: 2, wb0: 1, bias: HostBias},
				},
			},
		},
		{
			name:  "local-peer-shared",
			setup: func(p *sim.Proc, r, lp, n *Agent, line mem.Addr) { lp.Read(p, line, 8) },
			want: [2][4]expect{
				{
					{state: Shared, sharers: 2, lat: plat.LocalFwd},
					{state: Modified, owner: 'R', peerGone: true, lat: plat.LocalFwd},
					// Full-line store: only the local snoop is paid.
					{state: Modified, owner: 'R', peerGone: true, lat: plat.LLCHit},
					{state: Shared, sharers: 2},
				},
				{
					{state: Shared, sharers: 2, bias: HostBias, lat: plat.LocalFwd},
					{state: Modified, owner: 'R', peerGone: true, bias: HostBias, lat: plat.LocalFwd},
					{state: Modified, owner: 'R', peerGone: true, bias: HostBias, lat: plat.LLCHit},
					{state: Shared, sharers: 2, bias: HostBias},
				},
			},
		},
		{
			name:  "remote-modified",
			setup: func(p *sim.Proc, r, lp, n *Agent, line mem.Addr) { n.Write(p, line, 8) },
			want: [2][4]expect{
				{
					// Demote, not migrate: the device keeps a Shared copy and
					// its dirty data is written home; the filter follows. The
					// host reaches the device's dirty copy with an H2D snoop.
					{state: Shared, sharers: 2, read: 1, data: true, wb1: 1, filter: FilterShared, lat: cx.Snoop},
					{state: Modified, owner: 'R', rfo: 1, data: true, peerGone: true, filter: FilterAbsent, lat: cx.Snoop},
					{state: Modified, owner: 'R', rfo: 1, peerGone: true, filter: FilterAbsent, lat: cx.Inval},
					{state: Shared, sharers: 2, read: 1, data: true, wb1: 1, filter: FilterShared},
				},
				{
					// Device dirty in its own HDM: no writeback crosses on
					// demote (the data is already home).
					{state: Shared, sharers: 2, read: 1, data: true, bias: HostBias, lat: cx.MemRead},
					{state: Modified, owner: 'R', rfo: 1, data: true, peerGone: true, bias: HostBias, lat: cx.MemRead},
					{state: Modified, owner: 'R', rfo: 1, peerGone: true, bias: HostBias, lat: cx.Inval},
					{state: Shared, sharers: 2, read: 1, data: true, bias: HostBias},
				},
			},
		},
		{
			name:  "remote-shared",
			setup: func(p *sim.Proc, r, lp, n *Agent, line mem.Addr) { n.Read(p, line, 8) },
			want: [2][4]expect{
				{
					{state: Shared, sharers: 2, read: 1, data: true, filter: FilterShared, lat: cx.Snoop},
					{state: Modified, owner: 'R', rfo: 1, data: true, peerGone: true, filter: FilterAbsent, lat: cx.Snoop},
					{state: Modified, owner: 'R', rfo: 1, peerGone: true, filter: FilterAbsent, lat: cx.Inval},
					{state: Shared, sharers: 2, read: 1, data: true, filter: FilterShared},
				},
				{
					{state: Shared, sharers: 2, read: 1, data: true, bias: HostBias, lat: cx.MemRead},
					{state: Modified, owner: 'R', rfo: 1, data: true, peerGone: true, bias: HostBias, lat: cx.MemRead},
					{state: Modified, owner: 'R', rfo: 1, peerGone: true, bias: HostBias, lat: cx.Inval},
					{state: Shared, sharers: 2, read: 1, data: true, bias: HostBias},
				},
			},
		},
		{
			name: "both-shared",
			setup: func(p *sim.Proc, r, lp, n *Agent, line mem.Addr) {
				r.Read(p, line, 8)
				n.Read(p, line, 8)
			},
			want: [2][4]expect{
				{
					{state: Shared, sharers: 2, filter: FilterShared, lat: plat.L2Hit}, // L2 hit
					{state: Modified, owner: 'R', rfo: 1, peerGone: true, filter: FilterAbsent, lat: cx.Inval},
					{state: Modified, owner: 'R', rfo: 1, peerGone: true, filter: FilterAbsent, lat: cx.Inval},
					{state: Shared, sharers: 2, filter: FilterShared}, // already resident: no-op
				},
				{
					// The device's setup read reclaimed the HDM line to
					// device bias and flushed the host copy: the requester
					// re-misses across the link.
					{state: Shared, sharers: 2, read: 1, data: true, bias: HostBias, lat: cx.MemRead},
					{state: Modified, owner: 'R', rfo: 1, data: true, peerGone: true, bias: HostBias, lat: cx.MemRead},
					{state: Modified, owner: 'R', rfo: 1, peerGone: true, bias: HostBias, lat: cx.Inval},
					{state: Shared, sharers: 2, read: 1, data: true, bias: HostBias},
				},
			},
		},
	}

	for home := 0; home < 2; home++ {
		for _, pl := range placements {
			for ei, ev := range events {
				name := fmt.Sprintf("home%d/%s/%s", home, pl.name, ev.name)
				t.Run(name, func(t *testing.T) {
					want := pl.want[home][ei]
					cxlHarness(t, plat, func(p *sim.Proc, s *System) {
						r := s.NewAgent(0, "R")
						lp := s.NewAgent(0, "P")
						n := s.NewAgent(1, "N")
						line := s.Space().AllocLines(home, 1)
						pl.setup(p, r, lp, n, line)

						read0 := s.Counters(0).RemoteRead
						rfo0 := s.Counters(0).RemoteRFO
						wbA := s.Counters(0).Writebacks
						wbB := s.Counters(1).Writebacks
						lk := s.Link().Stats()
						data0 := lk.DataBytes[0] + lk.DataBytes[1]

						lat := ev.run(p, r, line)
						if lat != want.lat {
							t.Errorf("latency %v, want %v", lat, want.lat)
						}

						st := Invalid
						if e := r.l2.peek(line); e != nil {
							st = e.state
						}
						if st != want.state {
							t.Errorf("requester holds %v, want %v", st, want.state)
						}
						d := s.lookup(line)
						var owner rune
						if d != nil && d.owner != nil {
							if d.owner == r.l2 {
								owner = 'R'
							} else {
								owner = '?'
							}
						}
						if owner != want.owner {
							t.Errorf("directory owner %q, want %q", owner, want.owner)
						}
						got := 0
						if d != nil {
							got = len(d.sharers)
						}
						if got != want.sharers {
							t.Errorf("%d sharers, want %d", got, want.sharers)
						}
						if want.peerGone {
							for _, peer := range []*Agent{lp, n} {
								if e := peer.l2.peek(line); e != nil {
									t.Errorf("peer %s still holds the line %v", peer.name, e.state)
								}
							}
						}
						if got := s.Counters(0).RemoteRead - read0; got != int64(want.read) {
							t.Errorf("RemoteRead delta %d, want %d", got, want.read)
						}
						if got := s.Counters(0).RemoteRFO - rfo0; got != int64(want.rfo) {
							t.Errorf("RemoteRFO delta %d, want %d", got, want.rfo)
						}
						if got := s.Counters(0).Writebacks - wbA; got != int64(want.wb0) {
							t.Errorf("socket-0 Writebacks delta %d, want %d", got, want.wb0)
						}
						if got := s.Counters(1).Writebacks - wbB; got != int64(want.wb1) {
							t.Errorf("socket-1 Writebacks delta %d, want %d", got, want.wb1)
						}
						lk = s.Link().Stats()
						gotData := lk.DataBytes[0]+lk.DataBytes[1] > data0
						if gotData != want.data {
							t.Errorf("line data crossed the link = %v, want %v", gotData, want.data)
						}
						if home == 0 {
							if f, ok := s.SnoopFilter(line); !ok || f != want.filter {
								t.Errorf("snoop filter %v (ok=%v), want %v", f, ok, want.filter)
							}
						} else {
							if bs, ok := s.Bias(line); !ok || bs != want.bias {
								t.Errorf("bias %v (ok=%v), want %v", bs, ok, want.bias)
							}
						}
					})
				})
			}
		}
	}
}

// TestCXLBiasFlip pins the CXL.mem bias protocol on device-side accesses: a
// device access to a host-bias HDM line pays the bias-flip roundtrip, the
// host's copies are flushed (dirty data written back over the link), and the
// line returns to device bias so subsequent device accesses are host-free.
func TestCXLBiasFlip(t *testing.T) {
	t.Run("host-clean", func(t *testing.T) {
		cxlHarness(t, platform.ICX(), func(p *sim.Proc, s *System) {
			r := s.NewAgent(0, "R")
			n := s.NewAgent(1, "N")
			line := s.Space().AllocLines(1, 1)
			r.Read(p, line, 8)
			if bs, _ := s.Bias(line); bs != HostBias {
				t.Fatalf("host fill left bias %v, want host", bs)
			}
			flips0 := s.Counters(1).BiasFlips
			lat := n.Write(p, line, 8)
			if got := s.Counters(1).BiasFlips - flips0; got != 1 {
				t.Errorf("BiasFlips delta %d, want 1", got)
			}
			if bs, _ := s.Bias(line); bs != DeviceBias {
				t.Errorf("bias after device reclaim = %v, want device", bs)
			}
			if r.l2.peek(line) != nil {
				t.Error("host copy survived the bias reclaim")
			}
			if cx := s.plat.CXL; lat < cx.BiasFlip {
				t.Errorf("device access latency %v did not include the %v bias flip", lat, cx.BiasFlip)
			}
		})
	})
	t.Run("host-dirty", func(t *testing.T) {
		cxlHarness(t, platform.ICX(), func(p *sim.Proc, s *System) {
			r := s.NewAgent(0, "R")
			n := s.NewAgent(1, "N")
			line := s.Space().AllocLines(1, 1)
			r.Write(p, line, 8)
			wb0 := s.Counters(0).Writebacks
			n.Read(p, line, 8)
			if got := s.Counters(0).Writebacks - wb0; got != 1 {
				t.Errorf("host dirty reclaim: Writebacks delta %d, want 1", got)
			}
			if r.l2.peek(line) != nil {
				t.Error("host dirty copy survived the bias reclaim")
			}
			if bs, _ := s.Bias(line); bs != DeviceBias {
				t.Errorf("bias after reclaim = %v, want device", bs)
			}
		})
	})
	t.Run("device-bias-is-host-free", func(t *testing.T) {
		cxlHarness(t, platform.ICX(), func(p *sim.Proc, s *System) {
			n := s.NewAgent(1, "N")
			line := s.Space().AllocLines(1, 1)
			m0 := s.Link().Stats().Messages[0] + s.Link().Stats().Messages[1]
			lat := n.Read(p, line, 64)
			n.Write(p, line, 8)
			m1 := s.Link().Stats().Messages[0] + s.Link().Stats().Messages[1]
			if m1 != m0 {
				t.Errorf("device-bias HDM access sent %d link messages, want 0", m1-m0)
			}
			if lat != s.plat.LocalDRAM {
				t.Errorf("device-bias HDM read = %v, want local DRAM %v", lat, s.plat.LocalDRAM)
			}
		})
	})
}

// TestCXLSnoopFilterTracking pins the host-managed snoop filter through a
// fill/upgrade/demote/invalidate cycle of one host-homed line.
func TestCXLSnoopFilterTracking(t *testing.T) {
	cxlHarness(t, platform.ICX(), func(p *sim.Proc, s *System) {
		r := s.NewAgent(0, "R")
		n := s.NewAgent(1, "N")
		line := s.Space().AllocLines(0, 1)
		step := func(want FilterState, what string) {
			t.Helper()
			if f, ok := s.SnoopFilter(line); !ok || f != want {
				t.Errorf("after %s: filter %v (ok=%v), want %v", what, f, ok, want)
			}
		}
		step(FilterAbsent, "alloc")
		n.Read(p, line, 8)
		step(FilterShared, "device read")
		n.Write(p, line, 8)
		step(FilterExclusive, "device write")
		r.Read(p, line, 8)
		step(FilterShared, "host read demotes the device")
		r.Write(p, line, 8)
		step(FilterAbsent, "host write invalidates the device")
		if n.l2.peek(line) != nil {
			t.Error("device copy survived the host RFO")
		}
	})
}
