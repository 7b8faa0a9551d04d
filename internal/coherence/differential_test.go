package coherence

import (
	"fmt"
	"math/rand"
	"testing"

	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

// traceOp is one step of a randomized access trace, replayable on any
// protocol backend.
type traceOp struct {
	agent int // index into the trace's agent set
	line  int // index into the trace's line set
	write bool
	full  bool // full-line store (write only)
}

// genTrace draws a seeded random trace over nAgents agents (half per socket)
// and nLines lines (half per home).
func genTrace(seed int64, nAgents, nLines, ops int) []traceOp {
	rng := rand.New(rand.NewSource(seed))
	tr := make([]traceOp, ops)
	for i := range tr {
		w := rng.Intn(3) == 0
		tr[i] = traceOp{
			agent: rng.Intn(nAgents),
			line:  rng.Intn(nLines),
			write: w,
			full:  w && rng.Intn(4) == 0,
		}
	}
	return tr
}

// funcOutcome is the protocol-independent result of one trace op: what a
// correct coherence protocol must guarantee regardless of its transition
// choices. Timing, message counts, and intermediate states (Shared vs
// migrated-Modified after a read) are deliberately excluded.
type funcOutcome struct {
	reqHolds  bool // requester holds a valid copy after the op
	soleOwner bool // after a write: requester is the only holder, Modified
}

// replay runs a trace on one backend and returns the per-op functional
// outcomes plus the system for counter inspection. Every write op also
// asserts the data-value invariant directly: the writer must end as the sole
// Modified holder, so no stale copy can later supply an old value. (A
// Modified copy held by a non-writer is legal — UPI's migratory forwarding
// moves the dirty data to a demand reader — so last-writer identity is a
// protocol choice, not a functional outcome.)
func replay(t *testing.T, proto Protocol, tr []traceOp, nAgents, nLines int) ([]funcOutcome, *System) {
	t.Helper()
	k := sim.New()
	s := NewSystemProto(k, platform.ICX(), proto)
	out := make([]funcOutcome, len(tr))
	k.Spawn("trace", func(p *sim.Proc) {
		agents := make([]*Agent, nAgents)
		for i := range agents {
			agents[i] = s.NewAgent(i%2, fmt.Sprintf("a%d", i))
		}
		lines := make([]mem.Addr, nLines)
		for i := range lines {
			lines[i] = s.Space().AllocLines(i%2, 1)
		}
		for i, op := range tr {
			a, line := agents[op.agent], lines[op.line]
			if op.write {
				n := 8
				if op.full {
					n = mem.LineSize
				}
				a.Write(p, line, n)
			} else {
				a.Read(p, line, 8)
			}
			e := a.l2.peek(line)
			out[i].reqHolds = e != nil
			if op.write {
				d := s.lookup(line)
				out[i].soleOwner = e != nil && e.state == Modified &&
					d != nil && d.owner != nil && d.owner.c == a.l2 && len(d.sharers) == 0
				if !out[i].soleOwner {
					t.Errorf("%v op %d (%+v): writer did not obtain sole Modified ownership",
						proto, i, op)
				}
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("%v replay: %v", proto, err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("%v replay violated invariants: %v", proto, err)
	}
	return out, s
}

// TestProtocolDifferential replays the same randomized access traces under
// the UPI and CXL backends and asserts they agree on every functional
// outcome — readers observe valid copies, writers obtain sole ownership, no
// written value is lost — while being permitted (and, on contended traces,
// expected) to diverge in timing and message counts.
func TestProtocolDifferential(t *testing.T) {
	const nAgents, nLines, ops = 4, 6, 400
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tr := genTrace(seed, nAgents, nLines, ops)
			upi, upiSys := replay(t, ProtoUPI, tr, nAgents, nLines)
			cxl, cxlSys := replay(t, ProtoCXL, tr, nAgents, nLines)
			for i := range tr {
				if upi[i] != cxl[i] {
					t.Errorf("op %d (%+v): functional outcome diverged: UPI %+v, CXL %+v",
						i, tr[i], upi[i], cxl[i])
				}
			}
			// The protocols must actually be different protocols: on a
			// random contended trace their message economies differ.
			um := upiSys.Link().Stats().Messages[0] + upiSys.Link().Stats().Messages[1]
			cm := cxlSys.Link().Stats().Messages[0] + cxlSys.Link().Stats().Messages[1]
			if um == cm {
				t.Errorf("UPI and CXL sent identical message counts (%d); timing divergence lost", um)
			}
		})
	}
}

// TestDirectoryIsTheResidencyIndex replays the differential traces on both
// protocols and requires the directory and the caches to share one set of
// entries: every entry linked on a cache's LRU list is the one its line's
// slot names for that cache, and every holder a slot names is linked.
func TestDirectoryIsTheResidencyIndex(t *testing.T) {
	const nAgents, nLines, ops = 4, 6, 400
	for _, proto := range []Protocol{ProtoUPI, ProtoCXL} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", proto, seed), func(t *testing.T) {
				_, s := replay(t, proto, genTrace(seed, nAgents, nLines, ops), nAgents, nLines)
				linked := map[*entry]bool{}
				for _, c := range s.caches() {
					for e := c.head.next; e != &c.head; e = e.next {
						if d := s.lookup(e.line); d == nil || d.find(c) != e {
							t.Errorf("%s's entry for %#x is not its directory slot's", c.name, e.line)
						}
						linked[e] = true
					}
				}
				if len(linked) == 0 {
					t.Fatal("the trace left no line resident")
				}
				s.forEachDir(func(line mem.Addr, d *dirEntry) {
					holders := d.sharers
					if d.owner != nil {
						holders = append([]*entry{d.owner}, holders...)
					}
					for _, e := range holders {
						if !linked[e] || e.line != line {
							t.Errorf("line %#x: the directory names an entry of %s not resident there", line, e.c.name)
						}
					}
				})
			})
		}
	}
}

// TestProtocolDivergence pins the mechanisms by which the backends differ in
// timing and message counts on the paper's canonical pingpong: UPI's
// migratory forwarding round costs two data reads and nothing else, while
// CXL pays upgrade RFOs and a writeback per round; speculative home reads
// exist only under UPI, bias flips only under CXL.
func TestProtocolDivergence(t *testing.T) {
	pingpong := func(proto Protocol) (read, rfo, wb, spec, flips int64, elapsed sim.Time) {
		k := sim.New()
		s := NewSystemProto(k, platform.ICX(), proto)
		k.Spawn("pp", func(p *sim.Proc) {
			h := s.NewAgent(0, "H")
			n := s.NewAgent(1, "N")
			line := s.Space().AllocLines(0, 1)
			round := func() {
				n.Read(p, line, 8)
				n.Write(p, line, 8)
				h.Read(p, line, 8)
				h.Write(p, line, 8)
			}
			round() // prime
			r0 := s.Counters(0).RemoteRead + s.Counters(1).RemoteRead
			f0 := s.Counters(0).RemoteRFO + s.Counters(1).RemoteRFO
			w0 := s.Counters(0).Writebacks + s.Counters(1).Writebacks
			const rounds = 10
			for i := 0; i < rounds; i++ {
				round()
			}
			read = (s.Counters(0).RemoteRead + s.Counters(1).RemoteRead - r0) / rounds
			rfo = (s.Counters(0).RemoteRFO + s.Counters(1).RemoteRFO - f0) / rounds
			wb = (s.Counters(0).Writebacks + s.Counters(1).Writebacks - w0) / rounds
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		spec = s.Counters(0).SpecMemRead + s.Counters(1).SpecMemRead
		flips = s.Counters(0).BiasFlips + s.Counters(1).BiasFlips
		return read, rfo, wb, spec, flips, k.Now()
	}

	uRead, uRFO, uWB, _, uFlips, uTime := pingpong(ProtoUPI)
	cRead, cRFO, cWB, cSpec, _, cTime := pingpong(ProtoCXL)

	if uRead != 2 || uRFO != 0 || uWB != 0 {
		t.Errorf("UPI pingpong: %d reads, %d RFOs, %d writebacks per round; want 2, 0, 0",
			uRead, uRFO, uWB)
	}
	if cRead != 2 || cRFO != 2 || cWB != 1 {
		t.Errorf("CXL pingpong: %d reads, %d RFOs, %d writebacks per round; want 2, 2, 1",
			cRead, cRFO, cWB)
	}
	if uFlips != 0 {
		t.Errorf("UPI recorded %d bias flips; the counter is CXL-only", uFlips)
	}
	if cSpec != 0 {
		t.Errorf("CXL recorded %d speculative home reads; the optimization is UPI-only", cSpec)
	}
	if cTime <= uTime {
		t.Errorf("CXL pingpong finished in %v, UPI in %v; the upgrade crossings should cost time",
			cTime, uTime)
	}
}

// TestNewSystemProtocol checks protocol selection: each implemented protocol
// builds a system that reports it and a link that carries its label, and an
// out-of-range value panics naming the value instead of silently building
// UPI.
func TestNewSystemProtocol(t *testing.T) {
	for _, tc := range []struct {
		proto Protocol
		panic string // expected panic message, or "" for a valid protocol
	}{
		{ProtoUPI, ""},
		{ProtoCXL, ""},
		{Protocol(2), "coherence: unknown protocol Protocol(2)"},
		{Protocol(255), "coherence: unknown protocol Protocol(255)"},
	} {
		t.Run(tc.proto.String(), func(t *testing.T) {
			defer func() {
				got := recover()
				if tc.panic == "" && got != nil {
					t.Fatalf("panicked: %v", got)
				}
				if tc.panic != "" && got != tc.panic {
					t.Fatalf("panic %v, want %q", got, tc.panic)
				}
			}()
			s := NewSystemProto(sim.New(), platform.ICX(), tc.proto)
			if got := s.Protocol(); got != tc.proto {
				t.Errorf("Protocol() = %v, want %v", got, tc.proto)
			}
			if got := s.Link().Label(); got != tc.proto.String() {
				t.Errorf("link label %q, want %q", got, tc.proto.String())
			}
		})
	}
}
