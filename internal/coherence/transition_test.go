package coherence

import (
	"fmt"
	"testing"

	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// TestTransitionTable exhaustively checks the protocol's (placement x event)
// matrix: for every reachable initial placement of a line — invalid, held by
// the requester, a same-socket peer, a remote peer, or shared combinations,
// each swept over both home sockets — and every requester event (demand
// read, partial store, full-line store, software prefetch), it asserts the
// requester's final cache state, the directory composition, exactly which
// interconnect crossings were charged, and the latency class the requester
// paid (a prefetch costs the core nothing).
func TestTransitionTable(t *testing.T) {
	plat := platform.ICX()
	type expect struct {
		state   State // requester's final L2 state
		owner   rune  // directory owner after the event: R, P, N, or 0
		sharers int   // directory sharer count after the event
		// Crossing deltas on the requester's socket. remoteHomed entries
		// apply only when the line is homed on socket 1 (the remote
		// socket relative to the requester).
		read, rfo    int
		readIfRemote int  // extra RemoteRead when home == 1
		rfoIfRemote  int  // extra RemoteRFO when home == 1
		data         bool // a full line crossed the link
		dataIfRemote bool
		peerInvalid  bool // the peer that held the line lost it
		// Requester latency; a nonzero latIfRemote replaces it when
		// home == 1.
		lat, latIfRemote sim.Time
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
		want  [4]expect // indexed like events
	}
	placements := []placement{
		{
			name:  "invalid",
			setup: func(p *sim.Proc, r, lp, n *Agent, line mem.Addr) {},
			want: [4]expect{
				{state: Shared, sharers: 1, readIfRemote: 1, dataIfRemote: true,
					lat: plat.LocalDRAM, latIfRemote: plat.RemoteDRAM},
				// A partial store's RFO fetches the line.
				{state: Modified, owner: 'R', rfoIfRemote: 1, dataIfRemote: true,
					lat: plat.LocalDRAM, latIfRemote: plat.RemoteDRAM},
				// ItoM from memory: ownership grant without a data fetch.
				{state: Modified, owner: 'R', rfoIfRemote: 1,
					lat: plat.LLCHit, latIfRemote: plat.RemoteInval},
				// A quiet fill: Shared, no demand latency charged.
				{state: Shared, sharers: 1, readIfRemote: 1, dataIfRemote: true},
			},
		},
		{
			name:  "self-shared",
			setup: func(p *sim.Proc, r, lp, n *Agent, line mem.Addr) { r.Read(p, line, 8) },
			want: [4]expect{
				{state: Shared, sharers: 1, lat: plat.L2Hit},
				// Sole sharer: silent upgrade, no crossing.
				{state: Modified, owner: 'R', lat: plat.L2Hit},
				{state: Modified, owner: 'R', lat: plat.L2Hit},
				{state: Shared, sharers: 1}, // already resident: no-op
			},
		},
		{
			name:  "self-modified",
			setup: func(p *sim.Proc, r, lp, n *Agent, line mem.Addr) { r.Write(p, line, 8) },
			want: [4]expect{
				{state: Modified, owner: 'R', lat: plat.L2Hit},
				{state: Modified, owner: 'R', lat: plat.L2Hit},
				{state: Modified, owner: 'R', lat: plat.L2Hit},
				{state: Modified, owner: 'R'},
			},
		},
		{
			name:  "local-peer-modified",
			setup: func(p *sim.Proc, r, lp, n *Agent, line mem.Addr) { lp.Write(p, line, 8) },
			want: [4]expect{
				// Migratory dirty forwarding, local: no link traffic.
				{state: Modified, owner: 'R', peerInvalid: true, lat: plat.LocalFwd},
				{state: Modified, owner: 'R', peerInvalid: true, lat: plat.LocalFwd},
				{state: Modified, owner: 'R', peerInvalid: true, lat: plat.LLCHit},
				// Prefetches never migrate: the peer is demoted to Shared.
				{state: Shared, sharers: 2},
			},
		},
		{
			name:  "local-peer-shared",
			setup: func(p *sim.Proc, r, lp, n *Agent, line mem.Addr) { lp.Read(p, line, 8) },
			want: [4]expect{
				{state: Shared, sharers: 2, lat: plat.LocalFwd},
				{state: Modified, owner: 'R', peerInvalid: true, lat: plat.LocalFwd},
				{state: Modified, owner: 'R', peerInvalid: true, lat: plat.LLCHit},
				{state: Shared, sharers: 2},
			},
		},
		{
			name:  "remote-modified",
			setup: func(p *sim.Proc, r, lp, n *Agent, line mem.Addr) { n.Write(p, line, 8) },
			want: [4]expect{
				// Migratory dirty forwarding across the link: one data
				// crossing, counted as a remote read. The reader-homed
				// (home 0) and writer-homed (home 1) paths differ.
				{state: Modified, owner: 'R', read: 1, data: true, peerInvalid: true,
					lat: plat.RemoteLH, latIfRemote: plat.RemoteRH},
				// A partial store's RFO migrates the data.
				{state: Modified, owner: 'R', rfo: 1, data: true, peerInvalid: true,
					lat: plat.RemoteLH, latIfRemote: plat.RemoteRH},
				// ItoM: invalidate without moving the stale data.
				{state: Modified, owner: 'R', rfo: 1, peerInvalid: true, lat: plat.RemoteInval},
				{state: Shared, sharers: 2, read: 1, data: true},
			},
		},
		{
			name:  "remote-shared",
			setup: func(p *sim.Proc, r, lp, n *Agent, line mem.Addr) { n.Read(p, line, 8) },
			want: [4]expect{
				{state: Shared, sharers: 2, read: 1, data: true,
					lat: plat.RemoteLH, latIfRemote: plat.RemoteRH},
				{state: Modified, owner: 'R', rfo: 1, data: true, peerInvalid: true,
					lat: plat.RemoteLH, latIfRemote: plat.RemoteRH},
				{state: Modified, owner: 'R', rfo: 1, peerInvalid: true, lat: plat.RemoteInval},
				{state: Shared, sharers: 2, read: 1, data: true},
			},
		},
		{
			name: "both-shared",
			setup: func(p *sim.Proc, r, lp, n *Agent, line mem.Addr) {
				r.Read(p, line, 8)
				n.Read(p, line, 8)
			},
			want: [4]expect{
				{state: Shared, sharers: 2, lat: plat.L2Hit},
				// Upgrade with a remote sharer pays the invalidation.
				{state: Modified, owner: 'R', rfo: 1, peerInvalid: true, lat: plat.RemoteInval},
				{state: Modified, owner: 'R', rfo: 1, peerInvalid: true, lat: plat.RemoteInval},
				{state: Shared, sharers: 2}, // already resident: no-op
			},
		},
	}

	for home := 0; home < 2; home++ {
		for _, pl := range placements {
			for ei, ev := range events {
				name := fmt.Sprintf("home%d/%s/%s", home, pl.name, ev.name)
				t.Run(name, func(t *testing.T) {
					want := pl.want[ei]
					harness(t, plat, func(p *sim.Proc, s *System) {
						r := s.NewAgent(0, "R")
						lp := s.NewAgent(0, "P")
						n := s.NewAgent(1, "N")
						line := s.Space().AllocLines(home, 1)
						pl.setup(p, r, lp, n, line)

						read0 := s.Counters(0).RemoteRead
						rfo0 := s.Counters(0).RemoteRFO
						lk := s.Link().Stats()
						data0 := lk.DataBytes[0] + lk.DataBytes[1]

						lat := ev.run(p, r, line)

						// Requester state.
						st := Invalid
						if e := r.l2.peek(line); e != nil {
							st = e.state
						}
						if st != want.state {
							t.Errorf("requester holds %v, want %v", st, want.state)
						}
						// Directory composition.
						d := s.lookup(line)
						var owner rune
						if d != nil && d.owner != nil {
							switch d.owner.c {
							case r.l2:
								owner = 'R'
							case lp.l2:
								owner = 'P'
							case n.l2:
								owner = 'N'
							default:
								owner = 'L' // an LLC
							}
						}
						if owner != want.owner {
							t.Errorf("directory owner %q, want %q", owner, want.owner)
						}
						if d != nil && len(d.sharers) != want.sharers {
							t.Errorf("%d sharers, want %d", len(d.sharers), want.sharers)
						}
						if want.peerInvalid {
							for _, peer := range []*Agent{lp, n} {
								if peer.l2.peek(line) != nil && want.state == Modified {
									if e := peer.l2.peek(line); e != nil {
										t.Errorf("peer %s still holds the line %v", peer.name, e.state)
									}
								}
							}
						}
						// Crossing accounting and latency.
						wantRead := want.read
						wantRFO := want.rfo
						wantData := want.data
						wantLat := want.lat
						if home == 1 {
							wantRead += want.readIfRemote
							wantRFO += want.rfoIfRemote
							wantData = wantData || want.dataIfRemote
							if want.latIfRemote != 0 {
								wantLat = want.latIfRemote
							}
						}
						if lat != wantLat {
							t.Errorf("latency %v, want %v", lat, wantLat)
						}
						if got := s.Counters(0).RemoteRead - read0; got != int64(wantRead) {
							t.Errorf("RemoteRead delta %d, want %d", got, wantRead)
						}
						if got := s.Counters(0).RemoteRFO - rfo0; got != int64(wantRFO) {
							t.Errorf("RemoteRFO delta %d, want %d", got, wantRFO)
						}
						lk = s.Link().Stats()
						gotData := lk.DataBytes[0]+lk.DataBytes[1] > data0
						if gotData != wantData {
							t.Errorf("line data crossed the link = %v, want %v", gotData, wantData)
						}
					})
				})
			}
		}
	}
}

// TestTransitionNoMigration pins the ablated protocol's read-of-Modified
// transitions: the owner is demoted to Shared (writing dirty data home) and
// the reader fills Shared, instead of ownership migrating.
func TestTransitionNoMigration(t *testing.T) {
	t.Run("remote", func(t *testing.T) {
		harness(t, platform.ICX(), func(p *sim.Proc, s *System) {
			s.SetMigration(false)
			r := s.NewAgent(0, "R")
			n := s.NewAgent(1, "N")
			line := s.Space().AllocLines(0, 1)
			n.Write(p, line, 8)
			wb := s.Counters(1).Writebacks
			r.Read(p, line, 8)
			if e := r.l2.peek(line); e == nil || e.state != Shared {
				t.Errorf("reader did not fill Shared: %v", e)
			}
			if e := n.l2.peek(line); e == nil || e.state != Shared {
				t.Errorf("previous owner was not demoted to Shared: %v", e)
			}
			d := s.lookup(line)
			if d.owner != nil || len(d.sharers) != 2 {
				t.Errorf("directory owner=%v sharers=%d, want ownerless with 2 sharers",
					d.owner, len(d.sharers))
			}
			// Dirty data written back across the link to its host home.
			if got := s.Counters(1).Writebacks - wb; got != 1 {
				t.Errorf("Writebacks delta %d, want 1", got)
			}
		})
	})
	t.Run("local", func(t *testing.T) {
		harness(t, platform.ICX(), func(p *sim.Proc, s *System) {
			s.SetMigration(false)
			r := s.NewAgent(0, "R")
			lp := s.NewAgent(0, "P")
			line := s.Space().AllocLines(0, 1)
			lp.Write(p, line, 8)
			r.Read(p, line, 8)
			d := s.lookup(line)
			if d.owner != nil || len(d.sharers) != 2 {
				t.Errorf("directory owner=%v sharers=%d, want ownerless with 2 sharers",
					d.owner, len(d.sharers))
			}
		})
	})
}

// TestMigrationAblationMessageCounts reproduces the Fig 8/17 mechanism at
// message granularity: a co-located pingpong round (NIC reads+writes, then
// host reads+writes one line) costs two data crossings with migratory dirty
// forwarding, and four crossings plus a writeback without it — the per-round
// overhead the ablation's throughput drop comes from.
func TestMigrationAblationMessageCounts(t *testing.T) {
	round := func(p *sim.Proc, h, n *Agent, line mem.Addr) {
		n.Read(p, line, 8)
		n.Write(p, line, 8)
		h.Read(p, line, 8)
		h.Write(p, line, 8)
	}
	type deltas struct {
		read, rfo, wb1, msgs int64
	}
	measure := func(migrate bool) deltas {
		var d deltas
		harness(t, platform.ICX(), func(p *sim.Proc, s *System) {
			s.SetMigration(migrate)
			h := s.NewAgent(0, "H")
			n := s.NewAgent(1, "N")
			line := s.Space().AllocLines(0, 1)
			round(p, h, n, line) // prime to steady state
			read0 := s.Counters(0).RemoteRead + s.Counters(1).RemoteRead
			rfo0 := s.Counters(0).RemoteRFO + s.Counters(1).RemoteRFO
			wb0 := s.Counters(1).Writebacks
			m0 := s.Link().Stats().Messages[0] + s.Link().Stats().Messages[1]
			const rounds = 10
			for i := 0; i < rounds; i++ {
				round(p, h, n, line)
			}
			d.read = (s.Counters(0).RemoteRead + s.Counters(1).RemoteRead - read0) / rounds
			d.rfo = (s.Counters(0).RemoteRFO + s.Counters(1).RemoteRFO - rfo0) / rounds
			d.wb1 = (s.Counters(1).Writebacks - wb0) / rounds
			d.msgs = (s.Link().Stats().Messages[0] + s.Link().Stats().Messages[1] - m0) / rounds
		})
		return d
	}

	on := measure(true)
	off := measure(false)

	if on.read != 2 || on.rfo != 0 || on.wb1 != 0 {
		t.Errorf("migration on: %d reads, %d RFOs, %d writebacks per round; want 2, 0, 0",
			on.read, on.rfo, on.wb1)
	}
	if off.read != 2 || off.rfo != 2 || off.wb1 != 1 {
		t.Errorf("migration off: %d reads, %d RFOs, %d writebacks per round; want 2, 2, 1",
			off.read, off.rfo, off.wb1)
	}
	if off.msgs <= on.msgs {
		t.Errorf("migration off sent %d link messages per round, on sent %d; ablation should cost more",
			off.msgs, on.msgs)
	}
}
