package fabric

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"ccnic/internal/sim"
	"ccnic/internal/sim/shard"
)

// delivery is one packet observed at its destination host.
type delivery struct {
	at    sim.Time
	src   int
	seq   int
	class Class
}

// harness builds a switch with hosts spread over hostShards shards (round
// robin) and records every delivery. Deliveries are recorded per destination
// host: host i's slice is only ever appended from host i's shard, so the
// harness is race-free at any worker count.
type harness struct {
	eng   *shard.Engine
	sw    *Switch
	hosts []*shard.Shard // per host, its shard
	recv  [][]delivery   // per destination host
}

func newHarness(t *testing.T, hosts, hostShards, workers int, cfg Config) *harness {
	t.Helper()
	h := &harness{
		eng:  shard.NewEngine(workers),
		recv: make([][]delivery, hosts),
	}
	shards := make([]*shard.Shard, hostShards)
	for i := range shards {
		shards[i] = h.eng.NewShard(fmt.Sprintf("hs%d", i), sim.New())
	}
	cfg.Ports = hosts
	h.sw = New(h.eng, "sw", cfg)
	for i := 0; i < hosts; i++ {
		hs := shards[i%hostShards]
		h.hosts = append(h.hosts, hs)
		h.sw.Attach(h.eng, hs, func(d *shard.Delivery, pkt Packet) (sim.Time, bool) {
			h.recv[pkt.Dst] = append(h.recv[pkt.Dst], delivery{
				at: d.Proc.Now(), src: pkt.Src, seq: pkt.Payload.(int), class: pkt.Class,
			})
			return 0, false
		})
	}
	return h
}

// sender spawns a process on host src that sends count packets of the given
// size and class to dst, one every gap (first send at t=0).
func (h *harness) sender(src, dst, count, bytes int, class Class, gap sim.Time) {
	k := h.hosts[src].Kernel()
	sw := h.sw
	k.Spawn(fmt.Sprintf("send%d", src), func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			sw.Ingress(p, 0, Packet{Src: src, Dst: dst, Class: class, Bytes: bytes, Payload: i})
			p.Sleep(gap)
		}
	})
}

// all returns every delivery, flattened in destination order.
func (h *harness) all() []delivery {
	var out []delivery
	for _, ds := range h.recv {
		out = append(out, ds...)
	}
	return out
}

// fingerprint renders deliveries in a partition-independent order: per
// destination, sorted by (time, source, sequence).
func (h *harness) fingerprint() string {
	var b strings.Builder
	for dst, ds := range h.recv {
		ds := append([]delivery(nil), ds...)
		sort.SliceStable(ds, func(a, b int) bool {
			if ds[a].at != ds[b].at {
				return ds[a].at < ds[b].at
			}
			if ds[a].src != ds[b].src {
				return ds[a].src < ds[b].src
			}
			return ds[a].seq < ds[b].seq
		})
		for _, d := range ds {
			fmt.Fprintf(&b, "%d<-%d #%d c%d @%d\n", dst, d.src, d.seq, d.class, d.at)
		}
	}
	b.WriteString(h.sw.Stats().String())
	return b.String()
}

func baseCfg() Config {
	return Config{
		BW:       12.5,
		HopLat:   300 * sim.Nanosecond,
		RouteLat: 150 * sim.Nanosecond,
		SchedLat: 25 * sim.Nanosecond,
	}
}

func TestRoutingDelivers(t *testing.T) {
	h := newHarness(t, 4, 4, 1, baseCfg())
	h.sender(0, 1, 3, 256, ClassRPC, sim.Microsecond)
	h.sender(2, 3, 3, 256, ClassRPC, sim.Microsecond)
	if err := h.eng.Run(10 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if got := len(h.all()); got != 6 {
		t.Fatalf("delivered %d packets, want 6", got)
	}
	if len(h.recv[1]) != 3 || len(h.recv[3]) != 3 {
		t.Fatalf("misrouted: host1 got %d, host3 got %d", len(h.recv[1]), len(h.recv[3]))
	}
	// Floor: two hops + routing + serialization; arbitration adds more.
	floor := 2*300*sim.Nanosecond + 150*sim.Nanosecond + h.sw.SerTime(256)
	for _, d := range h.all() {
		if d.at < floor {
			t.Fatalf("delivery at %v beats the physical floor %v", d.at, floor)
		}
	}
	st := h.sw.Stats()
	if st.Forwarded() != 6 || st.Drops() != 0 {
		t.Fatalf("stats: %s", st)
	}
}

// TestDRRFairness: a saturating bulk source and a paced RPC source share one
// egress port. Under DRR the RPC queue drains at its offered rate; under
// FIFO the same RPC packets sit behind the whole bulk backlog.
func TestDRRFairness(t *testing.T) {
	for _, fifo := range []bool{false, true} {
		cfg := baseCfg()
		cfg.FIFO = fifo
		cfg.FlowCap = 1 << 14
		h := newHarness(t, 3, 3, 1, cfg)
		// Bulk: 8KiB packets every 100ns (oversubscribes the 12.5 B/ns port
		// by ~6.5x). RPC: 256B every 2us — trivial load on the same port.
		h.sender(0, 2, 4000, 8192, ClassBulk, 100*sim.Nanosecond)
		h.sender(1, 2, 100, 256, ClassRPC, 2*sim.Microsecond)
		if err := h.eng.Run(400 * sim.Microsecond); err != nil {
			t.Fatal(err)
		}
		var worstRPC sim.Time
		rpcSeen := 0
		for _, d := range h.recv[2] {
			if d.class != ClassRPC {
				continue
			}
			rpcSeen++
			// The sender emits RPC seq i at exactly i*2us.
			lat := d.at - sim.Time(d.seq)*2*sim.Microsecond
			if lat > worstRPC {
				worstRPC = lat
			}
		}
		if rpcSeen == 0 {
			t.Fatalf("fifo=%v: no RPC packets delivered", fifo)
		}
		// Idle-fabric RPC latency is ~800ns. Under DRR the worst extra wait
		// is bounded by a bulk packet's serialization plus arbitration.
		bound := 4 * sim.Microsecond
		if !fifo && worstRPC > bound {
			t.Fatalf("DRR: worst RPC latency %v exceeds bound %v", worstRPC, bound)
		}
		if fifo && worstRPC <= bound {
			t.Fatalf("FIFO: worst RPC latency %v unexpectedly within the DRR bound %v", worstRPC, bound)
		}
	}
}

func TestBoundedOccupancyDrops(t *testing.T) {
	cfg := baseCfg()
	cfg.FlowCap = 8
	h := newHarness(t, 2, 2, 1, cfg)
	// 1000 large packets sent nearly back-to-back into a FlowCap of 8.
	h.sender(0, 1, 1000, 8192, ClassBulk, 10*sim.Nanosecond)
	if err := h.eng.Run(2 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := h.sw.Stats()
	if st.Drops() == 0 {
		t.Fatalf("expected tail drops with FlowCap=8, got none: %s", st)
	}
	if st.Forwarded() == 0 {
		t.Fatalf("nothing forwarded: %s", st)
	}
	for p := range st.Ports {
		if err := h.sw.CheckPort(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := int64(len(h.all())); got != st.Forwarded() {
		t.Fatalf("delivered %d != forwarded %d", got, st.Forwarded())
	}
}

func TestFIFOOrderPerSource(t *testing.T) {
	cfg := baseCfg()
	cfg.FIFO = true
	h := newHarness(t, 2, 2, 1, cfg)
	h.sender(0, 1, 50, 1024, ClassRPC, 50*sim.Nanosecond)
	if err := h.eng.Run(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(h.recv[1]) != 50 {
		t.Fatalf("delivered %d, want 50", len(h.recv[1]))
	}
	for i, d := range h.recv[1] {
		if d.seq != i {
			t.Fatalf("out-of-order delivery: position %d carries seq %d", i, d.seq)
		}
	}
}

// contendedScenario drives 7 senders (mixed classes, fan-in on host 0, with
// drops) plus reverse traffic, and returns the fingerprint.
func contendedScenario(t *testing.T, hostShards, workers int, fifo bool) string {
	t.Helper()
	cfg := baseCfg()
	cfg.FIFO = fifo
	cfg.FlowCap = 32
	h := newHarness(t, 8, hostShards, workers, cfg)
	for src := 1; src < 8; src++ {
		class := ClassRPC
		bytes := 512
		if src%2 == 0 {
			class = ClassBulk
			bytes = 8192
		}
		// Offset each source's phase so arrivals interleave densely.
		gap := sim.Time(200+37*src) * sim.Nanosecond
		h.sender(src, 0, 300, bytes, class, gap)
	}
	// Host 0 also talks back to host 1: both directions cross the switch.
	h.sender(0, 1, 100, 256, ClassRPC, 700*sim.Nanosecond)
	if err := h.eng.Run(500 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	return h.fingerprint()
}

// TestPartitionInvariance: the same contended scenario must be bit-identical
// for every host partition and worker count — the package's core guarantee.
func TestPartitionInvariance(t *testing.T) {
	for _, fifo := range []bool{false, true} {
		ref := contendedScenario(t, 1, 1, fifo)
		for _, tc := range []struct{ shards, workers int }{
			{2, 1}, {4, 2}, {8, 4}, {8, 8},
		} {
			if got := contendedScenario(t, tc.shards, tc.workers, fifo); got != ref {
				t.Fatalf("fifo=%v: fingerprint diverged at hostShards=%d workers=%d",
					fifo, tc.shards, tc.workers)
			}
		}
	}
}

func TestRunTwiceDeterminism(t *testing.T) {
	if a, b := contendedScenario(t, 4, 4, false), contendedScenario(t, 4, 4, false); a != b {
		t.Fatal("identical runs diverged")
	}
}

// TestValidate: every configuration New refuses is rejected by Validate
// with an error (not a panic), New panics with the same message, and zero
// values for the defaulted knobs pass.
func TestValidate(t *testing.T) {
	ok := Config{Ports: 4, HopLat: 100 * sim.Nanosecond}
	for _, tc := range []struct {
		name string
		edit func(c *Config)
		want string // "" = valid
	}{
		{"minimal", func(c *Config) {}, ""},
		{"outage", func(c *Config) { c.Outages = []Outage{{Port: 3, From: 1, To: 2}} }, ""},
		{"one port", func(c *Config) { c.Ports = 1 }, "at least 2 ports, not 1"},
		{"zero hop", func(c *Config) { c.HopLat = 0 }, "HopLat must be strictly positive"},
		{"negative hop", func(c *Config) { c.HopLat = -sim.Nanosecond }, "HopLat must be strictly positive"},
		{"outage port past ports", func(c *Config) { c.Outages = []Outage{{Port: 4, To: 1}} }, "invalid scripted outage"},
		{"negative outage port", func(c *Config) { c.Outages = []Outage{{Port: -1, To: 1}} }, "invalid scripted outage"},
		{"outage before zero", func(c *Config) { c.Outages = []Outage{{From: -1, To: 1}} }, "invalid scripted outage"},
		{"empty outage", func(c *Config) { c.Outages = []Outage{{From: 5, To: 5}} }, "invalid scripted outage"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ok
			tc.edit(&cfg)
			err := cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, tc.want)
			}
			defer func() {
				if r := recover(); r != err.Error() {
					t.Fatalf("New panicked with %v, want %q", r, err)
				}
			}()
			New(shard.NewEngine(1), "sw", cfg)
		})
	}
}

// TestChecksCatchSkew: after a clean run, skewing any one counter the
// fabric's checks read makes the check that reads it fail, naming the
// switch and, for CheckPort, the port. Every other caller expects nil, so
// this is what shows the checks can fail at all.
func TestChecksCatchSkew(t *testing.T) {
	conservation := func(inAdm, routeDrops, refused, egAdm int) string {
		return fmt.Sprintf("fabric sw: switch conservation broken: ingress-admitted %d != in-pipeline 0 + route drops %d + egress-refused %d + egress-admitted %d",
			inAdm, routeDrops, refused, egAdm)
	}
	for _, tc := range []struct {
		name      string
		skew      func(pt *port)
		portErr   string // CheckPort(1)'s error, "" = nil
		switchErr string // CheckConservation's error, "" = nil
	}{
		{"egress admission", func(pt *port) { pt.stats.Admitted++ },
			"fabric sw port 1: conservation broken: admitted 61 != forwarded 60 + queued 0 + serializing 0",
			conservation(60, 0, 0, 61)},
		{"queued count", func(pt *port) { pt.queued++ },
			"fabric sw port 1: queued counter 1 != queue contents 0", ""},
		{"ingress admission", func(pt *port) { pt.stats.IngressAdmitted++ },
			"", conservation(61, 0, 0, 60)},
		{"tail drop", func(pt *port) { pt.stats.EgressDrops++ },
			"", conservation(60, 0, 1, 60)},
		{"down drop", func(pt *port) { pt.stats.EgressDownDrops++ },
			"", conservation(60, 0, 1, 60)},
		{"route drop", func(pt *port) { pt.stats.CorruptDrops++ },
			"", conservation(60, 1, 0, 60)},
		{"empty queue's deficit", func(pt *port) { pt.flows[4].deficit = 100 },
			"fabric sw port 1 flow 4: empty queue holds deficit 100, serving false", ""},
		{"empty queue's turn", func(pt *port) { pt.flows[4].serving = true },
			"fabric sw port 1 flow 4: empty queue holds deficit 0, serving true", ""},
		{"empty queue's busy bit", func(pt *port) { pt.busy[0] |= 1 << 5 },
			"fabric sw port 1 flow 5: busy bit true with 0 packets queued", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 3, 3, 1, baseCfg())
			h.sender(0, 1, 30, 512, ClassRPC, 200*sim.Nanosecond)
			h.sender(2, 1, 30, 512, ClassBulk, 300*sim.Nanosecond)
			if err := h.eng.Run(50 * sim.Microsecond); err != nil {
				t.Fatal(err)
			}
			if err := h.sw.CheckPort(1); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			if err := h.sw.CheckConservation(); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			tc.skew(h.sw.ports[1])
			for _, c := range []struct {
				check string
				err   error
				want  string
			}{
				{"CheckPort", h.sw.CheckPort(1), tc.portErr},
				{"CheckConservation", h.sw.CheckConservation(), tc.switchErr},
			} {
				switch {
				case c.want == "" && c.err != nil:
					t.Errorf("%s = %v, want nil", c.check, c.err)
				case c.want != "" && (c.err == nil || c.err.Error() != c.want):
					t.Errorf("%s = %v, want %q", c.check, c.err, c.want)
				}
			}
		})
	}
}

// scanDRR is pickDRR as a visit to every index: the loop the busy mask's
// skip replaces, kept as the reference for TestPickDRRMatchesScan.
func scanDRR(pt *port, quantum int, now sim.Time) (int, bool) {
	n := len(pt.flows)
	for scanned := 0; scanned <= n; scanned++ {
		f := &pt.flows[pt.cursor]
		if f.len() == 0 {
			if f.serving || f.deficit != 0 {
				f.serving = false
				f.deficit = 0
			}
			pt.cursor = (pt.cursor + 1) % n
			continue
		}
		h := &f.q[f.head]
		if h.at >= now {
			pt.cursor = (pt.cursor + 1) % n
			continue
		}
		if !f.serving {
			f.deficit += quantum
			f.serving = true
		}
		if f.deficit >= h.pkt.Bytes {
			f.deficit -= h.pkt.Bytes
			return pt.cursor, true
		}
		f.serving = false
		pt.cursor = (pt.cursor + 1) % n
	}
	return -1, false
}

// TestPickDRRMatchesScan is a randomized differential for pickDRR's skip
// over empty queues: on port states that keep the invariant CheckPort
// enforces (an empty queue holds no deficit, is not serving and has no busy
// bit), with heads not yet eligible, packets larger than a quantum and scan
// budgets that run out before a pick, pickDRR must return the queue the
// per-index scan returns and leave the same cursor, deficits and serving
// flags. Ports span one to three mask words.
func TestPickDRRMatchesScan(t *testing.T) {
	const quantum = 4096
	const now = 100 * sim.Nanosecond
	sw := &Switch{name: "sw", cfg: Config{Quantum: quantum, FlowCap: 8}}
	rng := rand.New(rand.NewSource(1))
	picked, exhausted := 0, 0
	for iter := 0; iter < 5000; iter++ {
		nflows := 2 + rng.Intn(140)
		a := &port{flows: make([]vq, nflows), busy: make([]uint64, (nflows+63)/64)}
		b := &port{flows: make([]vq, nflows)}
		density := rng.Float64()
		late := rng.Intn(4) == 0 // every head arrived at now: nothing eligible
		huge := rng.Intn(4) == 0 // packets up to three quanta
		for i := range a.flows {
			if rng.Float64() >= density {
				continue
			}
			f := &a.flows[i]
			for j := 1 + rng.Intn(3); j > 0; j-- {
				at := now - sim.Time(1+rng.Intn(50))
				if late || rng.Intn(5) == 0 {
					at = now
				}
				bytes := 64 + rng.Intn(1500)
				if huge {
					bytes = 64 + rng.Intn(3*quantum)
				}
				f.q = append(f.q, entry{at: at, pkt: Packet{Bytes: bytes}})
			}
			f.deficit = rng.Intn(quantum)
			f.serving = rng.Intn(2) == 0
			a.busy[i/64] |= 1 << (i % 64)
			a.queued += f.len()
		}
		if a.queued == 0 {
			continue
		}
		a.stats.Admitted = int64(a.queued)
		a.cursor = rng.Intn(nflows)
		for i, f := range a.flows {
			b.flows[i] = vq{q: slices.Clone(f.q), deficit: f.deficit, serving: f.serving}
		}
		b.cursor = a.cursor
		sw.ports = []*port{a}
		if err := sw.CheckPort(0); err != nil {
			t.Fatalf("iteration %d: generated state: %v", iter, err)
		}
		got, gotOK := sw.pickDRR(a, now)
		want, wantOK := scanDRR(b, quantum, now)
		if got != want || gotOK != wantOK || a.cursor != b.cursor {
			t.Fatalf("iteration %d (%d flows): pickDRR = %d, %v, cursor %d; scan = %d, %v, cursor %d",
				iter, nflows, got, gotOK, a.cursor, want, wantOK, b.cursor)
		}
		for i := range a.flows {
			fa, fb := &a.flows[i], &b.flows[i]
			if fa.deficit != fb.deficit || fa.serving != fb.serving {
				t.Fatalf("iteration %d flow %d: pickDRR left deficit %d, serving %v; scan %d, %v",
					iter, i, fa.deficit, fa.serving, fb.deficit, fb.serving)
			}
		}
		if gotOK {
			picked++
		} else {
			exhausted++
		}
	}
	t.Logf("%d picks, %d exhausted scans", picked, exhausted)
	if picked < 1000 || exhausted < 1000 {
		t.Errorf("%d picks and %d exhausted scans; want at least 1000 of each", picked, exhausted)
	}
}
