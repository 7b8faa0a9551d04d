package coherence

import (
	"math/rand"
	"testing"

	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// harness runs fn inside a single simulated process and returns the kernel.
func harness(t *testing.T, plat *platform.Platform, fn func(p *sim.Proc, s *System)) *System {
	t.Helper()
	k := sim.New()
	s := NewSystem(k, plat)
	k.Spawn("test", func(p *sim.Proc) { fn(p, s) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
	return s
}

func TestFig7LatencyCalibration(t *testing.T) {
	for _, plat := range []*platform.Platform{platform.ICX(), platform.SPR()} {
		plat := plat
		t.Run(plat.Name, func(t *testing.T) {
			harness(t, plat, func(p *sim.Proc, s *System) {
				host := s.NewAgent(0, "host")
				peer := s.NewAgent(0, "peer") // same-socket second core
				nic := s.NewAgent(1, "nic")

				// L DRAM: uncached, homed locally.
				a1 := s.Space().AllocLines(0, 1)
				if got := host.Read(p, a1, 64); got != plat.LocalDRAM {
					t.Errorf("L DRAM = %v, want %v", got, plat.LocalDRAM)
				}
				// R DRAM: uncached, homed remotely.
				a2 := s.Space().AllocLines(1, 1)
				if got := host.Read(p, a2, 64); got != plat.RemoteDRAM {
					t.Errorf("R DRAM = %v, want %v", got, plat.RemoteDRAM)
				}
				// L L2: modified in a same-socket core's L2.
				a3 := s.Space().AllocLines(0, 1)
				peer.Write(p, a3, 64)
				if got := host.Read(p, a3, 64); got != plat.LocalFwd {
					t.Errorf("L L2 = %v, want %v", got, plat.LocalFwd)
				}
				// R L2 (rh): modified in remote L2, homed on the
				// remote (writer) socket.
				a4 := s.Space().AllocLines(1, 1)
				nic.Write(p, a4, 64)
				if got := host.Read(p, a4, 64); got != plat.RemoteRH {
					t.Errorf("R L2 rh = %v, want %v", got, plat.RemoteRH)
				}
				// R L2 (lh): modified in remote L2, homed on the
				// local (reader) socket; incurs a speculative read.
				a5 := s.Space().AllocLines(0, 1)
				nic.Write(p, a5, 64)
				before := s.Counters(0).SpecMemRead
				if got := host.Read(p, a5, 64); got != plat.RemoteLH {
					t.Errorf("R L2 lh = %v, want %v", got, plat.RemoteLH)
				}
				if s.Counters(0).SpecMemRead != before+1 {
					t.Error("lh access did not record a speculative memory read")
				}
			})
		})
	}
}

func TestL2HitAfterFill(t *testing.T) {
	plat := platform.ICX()
	harness(t, plat, func(p *sim.Proc, s *System) {
		a := s.NewAgent(0, "a")
		addr := s.Space().AllocLines(0, 1)
		a.Read(p, addr, 64)
		if got := a.Read(p, addr, 64); got != plat.L2Hit {
			t.Errorf("second read = %v, want L2 hit %v", got, plat.L2Hit)
		}
		if got := a.Write(p, addr, 64); got != plat.L2Hit {
			t.Errorf("write after sole-sharer read = %v, want silent upgrade %v", got, plat.L2Hit)
		}
		if got := a.Write(p, addr, 64); got != plat.L2Hit {
			t.Errorf("write on M = %v, want %v", got, plat.L2Hit)
		}
	})
}

func TestMigratoryDirtyForwarding(t *testing.T) {
	// Reading a remote-M line must transfer ownership so the reader's
	// subsequent write is a local hit — the property CC-NIC's co-located
	// signaling exploits.
	plat := platform.ICX()
	harness(t, plat, func(p *sim.Proc, s *System) {
		host := s.NewAgent(0, "host")
		nic := s.NewAgent(1, "nic")
		addr := s.Space().AllocLines(0, 1)
		host.Write(p, addr, 64)
		nic.Read(p, addr, 64)
		if got := nic.Write(p, addr, 64); got != plat.L2Hit {
			t.Errorf("write after migratory read = %v, want local hit %v", got, plat.L2Hit)
		}
		// And the original owner must re-fetch.
		if got := host.Read(p, addr, 64); got != plat.RemoteLH {
			t.Errorf("owner re-read = %v, want remote %v", got, plat.RemoteLH)
		}
	})
}

func TestSharedReadersThenUpgrade(t *testing.T) {
	plat := platform.ICX()
	harness(t, plat, func(p *sim.Proc, s *System) {
		a := s.NewAgent(0, "a")
		b := s.NewAgent(0, "b")
		nic := s.NewAgent(1, "nic")
		addr := s.Space().AllocLines(0, 1)
		a.Read(p, addr, 64)
		// Second local reader: forwarded from the first core's cache.
		if got := b.Read(p, addr, 64); got != plat.LocalFwd {
			t.Errorf("local clean forward = %v, want %v", got, plat.LocalFwd)
		}
		// Remote reader joins.
		nic.Read(p, addr, 64)
		// Upgrade by a requires a cross-socket invalidation.
		rfoBefore := s.Counters(0).RemoteRFO
		if got := a.Write(p, addr, 64); got != plat.RemoteInval {
			t.Errorf("upgrade with remote sharer = %v, want %v", got, plat.RemoteInval)
		}
		if s.Counters(0).RemoteRFO != rfoBefore+1 {
			t.Error("upgrade did not count a remote RFO")
		}
		// All other copies must be gone.
		if got := a.Write(p, addr, 64); got != plat.L2Hit {
			t.Errorf("rewrite = %v, want hit", got)
		}
	})
}

// TestPingpongMessageCounts verifies the paper's Fig 17 observation: a
// co-located producer-consumer line needs 2 remote accesses per roundtrip,
// while separate per-direction lines need 4.
func TestPingpongMessageCounts(t *testing.T) {
	plat := platform.ICX()

	countRT := func(colocated bool) int64 {
		var total int64
		harness(t, plat, func(p *sim.Proc, s *System) {
			host := s.NewAgent(0, "host")
			nic := s.NewAgent(1, "nic")
			var lineA, lineB mem.Addr
			lineA = s.Space().AllocLines(0, 1)
			if colocated {
				lineB = lineA
			} else {
				lineB = s.Space().AllocLines(1, 1)
			}
			// Warm up one roundtrip, then measure 100.
			rt := func() {
				host.Write(p, lineA, 8)
				nic.Read(p, lineA, 8)
				nic.Write(p, lineB, 8)
				host.Read(p, lineB, 8)
			}
			rt()
			s.ResetCounters()
			for i := 0; i < 100; i++ {
				rt()
			}
			c0, c1 := s.Counters(0), s.Counters(1)
			total = (c0.RemoteRead + c0.RemoteRFO + c1.RemoteRead + c1.RemoteRFO) / 100
		})
		return total
	}

	if got := countRT(true); got != 2 {
		t.Errorf("co-located pingpong = %d remote accesses per RT, want 2", got)
	}
	if got := countRT(false); got != 4 {
		t.Errorf("separate-line pingpong = %d remote accesses per RT, want 4", got)
	}
}

func TestPingpongLatencyRatio(t *testing.T) {
	// Fig 8: separate-line layouts are 1.7-2.4x slower than co-located.
	for _, plat := range []*platform.Platform{platform.ICX(), platform.SPR()} {
		measure := func(colocated bool) sim.Time {
			var dur sim.Time
			harness(t, plat, func(p *sim.Proc, s *System) {
				host := s.NewAgent(0, "host")
				nic := s.NewAgent(1, "nic")
				lineA := s.Space().AllocLines(0, 1)
				lineB := lineA
				if !colocated {
					lineB = s.Space().AllocLines(1, 1)
				}
				rt := func() {
					host.Write(p, lineA, 8)
					nic.Read(p, lineA, 8)
					nic.Write(p, lineB, 8)
					host.Read(p, lineB, 8)
				}
				rt()
				start := p.Now()
				for i := 0; i < 100; i++ {
					rt()
				}
				dur = (p.Now() - start) / 100
			})
			return dur
		}
		co, sep := measure(true), measure(false)
		ratio := float64(sep) / float64(co)
		if ratio < 1.5 || ratio > 2.6 {
			t.Errorf("%s: separate/co-located pingpong ratio = %.2f, want ~1.7-2.4", plat.Name, ratio)
		}
	}
}

func TestEvictionToLLCAndWriteback(t *testing.T) {
	plat := platform.ICX()
	harness(t, plat, func(p *sim.Proc, s *System) {
		a := s.NewAgent(0, "a")
		// Write more lines than L2 holds; early lines must land in LLC.
		l2Lines := int(plat.L2Bytes / mem.LineSize)
		n := l2Lines + 64
		base := s.Space().AllocLines(0, n)
		for i := 0; i < n; i++ {
			a.Write(p, base+mem.Addr(i*mem.LineSize), 64)
		}
		if a.l2.Len() != l2Lines {
			t.Errorf("L2 holds %d lines, want %d", a.l2.Len(), l2Lines)
		}
		// The first line was evicted dirty: it must hit in LLC.
		if got := a.Read(p, base, 64); got != plat.LLCHit {
			t.Errorf("evicted dirty line read = %v, want LLC hit %v", got, plat.LLCHit)
		}
	})
}

func TestRemoteHomeWritebackChargesLink(t *testing.T) {
	plat := platform.ICX()
	// Shrink caches so we can force LLC evictions cheaply.
	plat.L2Bytes = 4 * mem.LineSize
	plat.LLCBytes = 8 * mem.LineSize
	harness(t, plat, func(p *sim.Proc, s *System) {
		a := s.NewAgent(0, "a")
		// Dirty lines homed on socket 1, written by socket 0.
		base := s.Space().AllocLines(1, 64)
		for i := 0; i < 64; i++ {
			a.Write(p, base+mem.Addr(i*mem.LineSize), 64)
		}
		if s.Counters(0).Writebacks == 0 {
			t.Error("no remote writebacks recorded despite LLC overflow of remote-homed dirty lines")
		}
	})
}

func TestStreamFasterThanSerial(t *testing.T) {
	plat := platform.ICX()
	harness(t, plat, func(p *sim.Proc, s *System) {
		host := s.NewAgent(0, "host")
		nic := s.NewAgent(1, "nic")
		const size = 4096
		a1 := s.Space().Alloc(1, size, 0)
		a2 := s.Space().Alloc(1, size, 0)
		nic.StreamWrite(p, a1, size)
		nic.StreamWrite(p, a2, size)
		serial := host.Read(p, a1, size)
		stream := host.StreamRead(p, a2, size)
		if stream >= serial {
			t.Errorf("stream read %v not faster than serial %v", stream, serial)
		}
		// Amortized stream cost should approach the per-line bandwidth cost.
		perLine := stream / sim.Time(size/mem.LineSize)
		bwLine := sim.Time(float64(mem.LineSize) / plat.RemoteStreamBW * float64(sim.Nanosecond))
		if perLine > 3*bwLine {
			t.Errorf("stream per-line %v far above bandwidth cost %v", perLine, bwLine)
		}
	})
}

func TestGatherScatterOverlap(t *testing.T) {
	plat := platform.ICX()
	harness(t, plat, func(p *sim.Proc, s *System) {
		host := s.NewAgent(0, "host")
		nic := s.NewAgent(1, "nic")
		var lines []mem.Addr
		for i := 0; i < 16; i++ {
			l := s.Space().AllocLines(1, 2) // non-adjacent
			nic.Write(p, l, 64)
			lines = append(lines, l)
		}
		got := host.GatherRead(p, lines)
		serialEstimate := sim.Time(16) * plat.RemoteLH
		if got >= serialEstimate {
			t.Errorf("gather %v not overlapped (serial would be %v)", got, serialEstimate)
		}
		// Scatter-write those lines back from the NIC side.
		w := nic.ScatterWrite(p, lines)
		if w >= serialEstimate {
			t.Errorf("scatter %v not overlapped", w)
		}
	})
}

func TestWriteNTBypassesCacheAndPenalizesLink(t *testing.T) {
	plat := platform.ICX()
	harness(t, plat, func(p *sim.Proc, s *System) {
		host := s.NewAgent(0, "host")
		nic := s.NewAgent(1, "nic")
		addr := s.Space().AllocLines(1, 4)
		host.Write(p, addr, 256) // cache it first
		s.ResetCounters()
		host.WriteNT(p, addr, 256)
		if s.Counters(0).RemoteNT != 4 {
			t.Errorf("RemoteNT = %d, want 4", s.Counters(0).RemoteNT)
		}
		st := s.Link().Stats()
		wantWire := int64(float64(256)*plat.NTWritePenalty) + 4*int64(plat.UPIHeader)
		if st.WireBytes[0] != wantWire {
			t.Errorf("NT wire bytes = %d, want %d", st.WireBytes[0], wantWire)
		}
		// The line must now come from DRAM for the NIC (no cached copy).
		if got := nic.Read(p, addr, 64); got != plat.LocalDRAM {
			t.Errorf("read after NT = %v, want local DRAM %v", got, plat.LocalDRAM)
		}
	})
}

func TestPrefetchHelpsStridedWriter(t *testing.T) {
	plat := platform.ICX()
	harness(t, plat, func(p *sim.Proc, s *System) {
		host := s.NewAgent(0, "host")
		nic := s.NewAgent(1, "nic")
		n := 32
		base := s.Space().AllocLines(0, n)
		// NIC dirties all lines (simulating consumed TX buffers).
		for i := 0; i < n; i++ {
			nic.Write(p, base+mem.Addr(i*mem.LineSize), 64)
		}
		// Host writes through them with a constant stride, prefetch off.
		var offLat sim.Time
		for i := 0; i < n; i++ {
			offLat += host.Write(p, base+mem.Addr(i*mem.LineSize), 64)
		}
		// Again with prefetch on (NIC redirties first).
		for i := 0; i < n; i++ {
			nic.Write(p, base+mem.Addr(i*mem.LineSize), 64)
		}
		s.SetPrefetch(0, true)
		var onLat sim.Time
		for i := 0; i < n; i++ {
			onLat += host.Write(p, base+mem.Addr(i*mem.LineSize), 64)
		}
		if onLat >= offLat {
			t.Errorf("prefetch-on stride writes (%v) not faster than off (%v)", onLat, offLat)
		}
		if s.Counters(0).Prefetches == 0 {
			t.Error("no prefetches issued")
		}
	})
}

func TestPrefetchHurtsContendedNeighbor(t *testing.T) {
	// A remote reader striding across buffers prefetches the next buffer
	// line; the local writer's next write then pays a remote invalidation
	// instead of a local hit — the harm CC-NIC's non-sequential pool
	// layout avoids.
	plat := platform.ICX()
	harness(t, plat, func(p *sim.Proc, s *System) {
		host := s.NewAgent(0, "host")
		nic := s.NewAgent(1, "nic")
		base := s.Space().AllocLines(0, 8)
		line := func(i int) mem.Addr { return base + mem.Addr(i*mem.LineSize) }
		s.SetPrefetch(1, true)
		// Host owns all lines.
		for i := 0; i < 8; i++ {
			host.Write(p, line(i), 64)
		}
		// NIC reads lines 0,1,2 sequentially: after two confirmations it
		// prefetches line 3.
		nic.Read(p, line(0), 64)
		nic.Read(p, line(1), 64)
		nic.Read(p, line(2), 64)
		if s.Counters(1).Prefetches == 0 {
			t.Fatal("expected a prefetch of the next line")
		}
		// Host's write to line 3 now sees a remote sharer.
		got := host.Write(p, line(3), 64)
		if got != plat.RemoteInval {
			t.Errorf("write to prefetched line = %v, want remote inval %v", got, plat.RemoteInval)
		}
	})
}

func TestPollDoesNotTrainPrefetcher(t *testing.T) {
	plat := platform.ICX()
	harness(t, plat, func(p *sim.Proc, s *System) {
		host := s.NewAgent(0, "host")
		s.SetPrefetch(0, true)
		base := s.Space().AllocLines(0, 8)
		for i := 0; i < 8; i++ {
			host.Poll(p, base+mem.Addr(i*mem.LineSize), 8)
		}
		if got := s.Counters(0).Prefetches; got != 0 {
			t.Errorf("polls trained the prefetcher: %d fills", got)
		}
	})
}

func TestCountersSymmetricReset(t *testing.T) {
	plat := platform.ICX()
	harness(t, plat, func(p *sim.Proc, s *System) {
		host := s.NewAgent(0, "host")
		addr := s.Space().AllocLines(1, 1)
		host.Read(p, addr, 64)
		if s.Counters(0).RemoteRead != 1 {
			t.Errorf("RemoteRead = %d, want 1", s.Counters(0).RemoteRead)
		}
		s.ResetCounters()
		if s.Counters(0) != (Counters{}) {
			t.Error("ResetCounters left residue")
		}
	})
}

// TestRandomWorkloadInvariants drives many agents with random operations and
// checks coherence invariants afterwards (the property-based safety net).
func TestRandomWorkloadInvariants(t *testing.T) {
	plat := platform.ICX()
	plat.L2Bytes = 16 * mem.LineSize // tiny caches force eviction churn
	plat.LLCBytes = 32 * mem.LineSize
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		harness(t, plat, func(p *sim.Proc, s *System) {
			rng := rand.New(rand.NewSource(seed))
			var agents []*Agent
			for i := 0; i < 3; i++ {
				agents = append(agents, s.NewAgent(0, "h"), s.NewAgent(1, "n"))
			}
			s.SetPrefetch(0, true)
			s.SetPrefetch(1, true)
			base0 := s.Space().AllocLines(0, 64)
			base1 := s.Space().AllocLines(1, 64)
			for op := 0; op < 3000; op++ {
				a := agents[rng.Intn(len(agents))]
				base := base0
				if rng.Intn(2) == 1 {
					base = base1
				}
				addr := base + mem.Addr(rng.Intn(64)*mem.LineSize)
				switch rng.Intn(5) {
				case 0:
					a.Read(p, addr, 64)
				case 1:
					a.Write(p, addr, 64)
				case 2:
					a.Poll(p, addr, 8)
				case 3:
					a.StreamRead(p, addr, 128)
				case 4:
					a.WriteNT(p, addr, 64)
				}
				if op%500 == 0 {
					if err := s.CheckInvariants(); err != nil {
						t.Fatalf("seed %d op %d: %v", seed, op, err)
					}
				}
			}
		})
	}
}

func TestDeterministicLatencies(t *testing.T) {
	run := func() []sim.Time {
		var out []sim.Time
		harness(t, platform.SPR(), func(p *sim.Proc, s *System) {
			h := s.NewAgent(0, "h")
			n := s.NewAgent(1, "n")
			rng := rand.New(rand.NewSource(3))
			base := s.Space().AllocLines(0, 32)
			for i := 0; i < 500; i++ {
				a := h
				if rng.Intn(2) == 1 {
					a = n
				}
				addr := base + mem.Addr(rng.Intn(32)*mem.LineSize)
				if rng.Intn(2) == 1 {
					out = append(out, a.Write(p, addr, 64))
				} else {
					out = append(out, a.Read(p, addr, 64))
				}
			}
		})
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency trace diverged at op %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAgentAccessors(t *testing.T) {
	plat := platform.ICX()
	harness(t, plat, func(p *sim.Proc, s *System) {
		a := s.NewAgent(1, "nic-core")
		if a.Name() != "nic-core" || a.Socket() != 1 || a.System() != s {
			t.Error("agent accessors wrong")
		}
		if s.Kernel() == nil || s.Platform() != plat {
			t.Error("system accessors wrong")
		}
		t0 := p.Now()
		a.Exec(p, 42*sim.Nanosecond)
		if p.Now()-t0 != 42*sim.Nanosecond {
			t.Error("Exec charged wrong time")
		}
	})
}

func TestSoftPrefetchFillsLine(t *testing.T) {
	plat := platform.ICX()
	harness(t, plat, func(p *sim.Proc, s *System) {
		host := s.NewAgent(0, "host")
		nic := s.NewAgent(1, "nic")
		line := s.Space().AllocLines(0, 1)
		nic.Write(p, line, 64)
		p.Sleep(sim.Microsecond)
		t0 := p.Now()
		host.SoftPrefetch(line)
		if p.Now() != t0 {
			t.Error("software prefetch consumed core time")
		}
		// The demand read now hits locally.
		if got := host.Read(p, line, 64); got != plat.L2Hit {
			t.Errorf("read after soft prefetch = %v, want L2 hit", got)
		}
		// Prefetching an already-cached line is a no-op.
		host.SoftPrefetch(line)
	})
}

func TestStateStrings(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Error("state strings wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state string empty")
	}
}

// TestSteadyStateInsertEvictZeroAllocs drives a working set larger than the
// L2 so every access cycles the insert/evict/writeback path, and requires
// the freelists (cache entries and directory entries) to make the steady
// state allocation-free.
func TestSteadyStateInsertEvictZeroAllocs(t *testing.T) {
	plat := platform.ICX()
	k := sim.New()
	s := NewSystem(k, plat)
	host := s.NewAgent(0, "host")
	// 4x the L2 in lines, so the L2 (and eventually the LLC recency list)
	// churns on every pass.
	n := int(4 * plat.L2Bytes / mem.LineSize)
	base := s.Space().AllocLines(0, n)
	var avg float64
	k.Spawn("churn", func(p *sim.Proc) {
		pass := func() {
			for i := 0; i < n; i++ {
				addr := base + mem.Addr(i)*mem.LineSize
				if i%3 == 0 {
					host.Write(p, addr, 8)
				} else {
					host.Read(p, addr, 8)
				}
			}
		}
		pass() // warm up: populate caches, directory, and freelists
		avg = testing.AllocsPerRun(3, pass)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("steady-state insert/evict allocates %v allocs/run, want 0", avg)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
}
