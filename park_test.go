package ccnic_test

import (
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ccnic"
	"ccnic/internal/device"
	"ccnic/internal/kvstore"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
	"ccnic/internal/traffic"
)

// parkLedger is a sim.ParkProbe that counts the parks which switch a
// process out, by park site, and by process name with its index
// stripped. A site is a callee and its caller on the parking stack, above
// the kernel: the model code's call into the coherence, buffer-pool or
// ring layer (Agent.Read <- Store.Get), or else the first two frames
// (driverWalk.park <- RxBurst). Every coroutine switch into a process but
// its first follows one such park.
type parkLedger struct {
	sites, procs map[string]int
	pcs          [64]uintptr
}

func newParkLedger() *parkLedger {
	return &parkLedger{sites: map[string]int{}, procs: map[string]int{}}
}

var (
	procIndex = regexp.MustCompile(`\d+$`)
	layerCall = regexp.MustCompile(`^(coherence|bufpool|ring)\.`)
)

// Park records p's park at the site on its stack.
func (l *parkLedger) Park(p *sim.Proc) {
	n := runtime.Callers(2, l.pcs[:])
	frames := runtime.CallersFrames(l.pcs[:n])
	var stack []string
	for {
		f, more := frames.Next()
		if fn := f.Function; fn != "" && !strings.HasPrefix(fn, "ccnic/internal/sim.") {
			stack = append(stack, strings.TrimPrefix(fn[strings.LastIndex(fn, "/")+1:], "ccnic."))
		}
		if !more {
			break
		}
	}
	i := 0
	for i < len(stack)-1 && layerCall.MatchString(stack[i]) {
		i++
	}
	site := stack[max(i-1, 0):min(max(i-1, 0)+2, len(stack))]
	l.sites[strings.Join(site, " <- ")]++
	l.procs[procIndex.ReplaceAllString(p.Name(), "")]++
}

// top returns the n most frequent entries of m, most frequent first.
func top(m map[string]int, n int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b string) int {
		if m[a] != m[b] {
			return m[b] - m[a]
		}
		return strings.Compare(a, b)
	})
	out := make([]string, 0, n)
	for _, k := range keys[:min(n, len(keys))] {
		out = append(out, fmt.Sprintf("%8d  %s", m[k], k))
	}
	return out
}

// ledgerPoint builds one simulation of a benchmark pass, runs it, and
// returns its kernel.
type ledgerPoint func(l *parkLedger) *sim.Kernel

// loopbackPoints rebuilds cmd/ccperf's loopback grids: for each interface
// and queue count, closed loop, then open loop at a seed-drawn share f of
// its capacity and at 1-f.
func loopbackPoints(seed int64, pkt int, ifaces []ccnic.Interface, queues []int, capacity map[string]float64) []ledgerPoint {
	rng := rand.New(rand.NewSource(seed))
	var pts []ledgerPoint
	for _, iface := range ifaces {
		for _, q := range queues {
			c := capacity[fmt.Sprintf("%v/%d", iface, q)]
			f := 0.2 + 0.6*rng.Float64()
			for _, mpps := range []float64{0, f * c, (1 - f) * c} {
				cfg := ccnic.Config{Platform: "ICX", Interface: iface, Queues: q, HostPrefetch: true}
				opt := ccnic.LoopbackOptions{PktSize: pkt, Rate: mpps * 1e6, Window: 128,
					Warmup: 20 * sim.Microsecond, Measure: 30 * sim.Microsecond}
				pts = append(pts, loopbackPoint(cfg, opt))
			}
		}
	}
	return pts
}

func loopbackPoint(cfg ccnic.Config, opt ccnic.LoopbackOptions) ledgerPoint {
	return func(l *parkLedger) *sim.Kernel {
		tb := ccnic.NewTestbed(cfg)
		tb.Kernel.SetParkProbe(l)
		tb.RunLoopback(opt)
		return tb.Kernel
	}
}

// derateSweepPoints rebuilds cmd/ccperf's derate-sweep: 16 combinations of
// backend, packet size and queue count, 3 points each, their latency and
// bandwidth derates paired by a seed-drawn Latin hypercube.
func derateSweepPoints(seed int64) []ledgerPoint {
	const combos, per = 16, 3
	rng := rand.New(rand.NewSource(seed))
	lat, bw := make([][]int, combos), make([][]int, combos)
	for c := range lat {
		lat[c], bw[c] = rng.Perm(per), rng.Perm(per)
	}
	var pts []ledgerPoint
	for i := 0; i < combos*per; i++ {
		c, j := i%combos, i/combos
		cfg := ccnic.Config{
			Plat:      platform.SPR().Derate(1+3*(float64(lat[c][j])+0.5)/per, 0.4+0.6*(float64(bw[c][j])+0.5)/per),
			Interface: ccnic.CCNIC, Protocol: []string{"UPI", "CXL"}[c%2], Queues: 1 + c/4, HostPrefetch: true}
		opt := ccnic.LoopbackOptions{PktSize: []int{64, 1536}[c/2%2], Window: 128,
			Warmup: 10 * sim.Microsecond, Measure: 30 * sim.Microsecond}
		pts = append(pts, loopbackPoint(cfg, opt))
	}
	return pts
}

// kvZipfPoints rebuilds cmd/ccperf's kv-zipf: the key-value store with 1M
// keys on 4 queues of the CX6 and the CC-NIC Overlay, under the Ads and Geo
// size distributions.
func kvZipfPoints(seed int64) []ledgerPoint {
	rng := rand.New(rand.NewSource(seed))
	var pts []ledgerPoint
	for _, iface := range []ccnic.Interface{ccnic.CX6, ccnic.OverlayCCNIC} {
		for _, dist := range []string{"ads", "geo"} {
			kvSeed := rng.Int63()
			pts = append(pts, func(l *parkLedger) *sim.Kernel {
				tb := ccnic.NewTestbed(ccnic.Config{Platform: "ICX", Interface: iface, Queues: 4,
					OverlayThreads: 8, HostPrefetch: true})
				sizes := traffic.Ads(kvSeed)
				if dist == "geo" {
					sizes = traffic.Geo(kvSeed)
				}
				tb.Kernel.SetParkProbe(l)
				kvstore.Run(kvstore.Config{Sys: tb.Sys, Dev: tb.Dev, Hosts: tb.Hosts,
					Store: kvstore.NewStore(tb.Sys, 0, 1_000_000, sizes), Seed: kvSeed,
					RatePerQueue: 10e6, Warmup: 40 * sim.Microsecond, Measure: 40 * sim.Microsecond})
				return tb.Kernel
			})
		}
	}
	return pts
}

// TestParkLedger runs one pass of each testbed workload of the repository
// benchmark (cmd/ccperf, seed 1), rebuilt here point for point, with a park
// ledger attached. It pins each pass's event count, which the spin steps
// must keep, bounds its coroutine switches, checks that no coherent NIC
// core, PCIe engine or overlay thread parks, and logs the leading park
// sites and parking processes: the measured ledger of DESIGN §7.
// fabric-mix has no coroutine at all (TestClusterRunsNoCoroutine).
func TestParkLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("four full benchmark passes")
	}
	for _, w := range []struct {
		name       string
		points     []ledgerPoint
		events     uint64
		maxResumes uint64
	}{
		{"loopback-64", loopbackPoints(1, 64, []ccnic.Interface{ccnic.CCNIC, ccnic.UnoptUPI}, []int{1, 4, 8},
			map[string]float64{"CC-NIC/1": 33.1, "CC-NIC/4": 33.1, "CC-NIC/8": 32.7,
				"UPI unopt/1": 10.4, "UPI unopt/4": 10.5, "UPI unopt/8": 10.4}), 772_020, 50_000},
		{"derate-sweep", derateSweepPoints(1), 1_206_941, 40_000},
		{"loopback-1500", loopbackPoints(1, 1500, []ccnic.Interface{ccnic.CCNIC, ccnic.E810, ccnic.CX6}, []int{1, 4},
			map[string]float64{"CC-NIC/1": 4.27, "CC-NIC/4": 4.27, "E810/1": 6.40, "E810/4": 3.66,
				"CX6/1": 6.40, "CX6/4": 3.88}), 774_595, 40_000},
		{"kv-zipf", kvZipfPoints(1), 565_001, 40_000},
	} {
		t.Run(w.name, func(t *testing.T) {
			l := newParkLedger()
			var events, resumes uint64
			for _, pt := range w.points {
				k := pt(l)
				events += k.Events()
				resumes += k.Resumes()
			}
			parks := 0
			for _, n := range l.sites {
				parks += n
			}
			t.Logf("%d events, %d coroutine switches: %d after parks, %d process starts", events, resumes, parks, int(resumes)-parks)
			t.Logf("top park sites:\n%s", strings.Join(top(l.sites, 12), "\n"))
			t.Logf("parking processes:\n%s", strings.Join(top(l.procs, 8), "\n"))
			if events != w.events {
				t.Errorf("%d events per pass, want %d", events, w.events)
			}
			if resumes > w.maxResumes {
				t.Errorf("%d coroutine switches per pass, want at most %d", resumes, w.maxResumes)
			}
			for name, n := range l.procs {
				if upiCore.MatchString(name+"0") || pcieOrOverlay.MatchString(name+"0") {
					t.Errorf("bodiless process %s parked %d times, want 0", name, n)
				}
			}
		})
	}
}

// upiCore matches the process name of a coherent NIC's core: per-queue
// (nic) or shared by a queue group (niccore).
var upiCore = regexp.MustCompile(`^(CC-NIC|UPI-unopt)\.nic(core)?\d+$`)

// TestUPICoreRunsNoCoroutine checks that a coherent NIC's cores are
// bodiless processes: CC-NIC and unoptimized-UPI loopback runs at 1 and 8
// queues, CC-NIC runs on 4 queues with 2 shared polling cores and with
// event-driven cores, one shared (NICCores 1) and one per queue (NICCores
// 0), each closed and open loop, make no coroutine switch out of (so none
// into) a NIC core, while the cores do serve every iteration.
func TestUPICoreRunsNoCoroutine(t *testing.T) {
	type point struct {
		name   string
		iface  ccnic.Interface
		queues int
		cfg    *device.UPIConfig
	}
	var pts []point
	for _, iface := range []ccnic.Interface{ccnic.CCNIC, ccnic.UnoptUPI} {
		for _, q := range []int{1, 8} {
			pts = append(pts, point{fmt.Sprintf("%v/q%d", iface, q), iface, q, nil})
		}
	}
	for _, g := range []struct {
		name  string
		cores int
		event bool
	}{{"shared2", 2, false}, {"event/cores1", 1, true}, {"event/cores0", 0, true}} {
		cfg := device.CCNICConfig()
		cfg.NICCores, cfg.EventDriven = g.cores, g.event
		pts = append(pts, point{"CC-NIC/q4/" + g.name, ccnic.CCNIC, 4, &cfg})
	}
	for _, pt := range pts {
		for _, rate := range []float64{0, 4e6} {
			t.Run(fmt.Sprintf("%s/rate%g", pt.name, rate), func(t *testing.T) {
				tb := ccnic.NewTestbed(ccnic.Config{Platform: "ICX", Interface: pt.iface, Queues: pt.queues,
					UPI: pt.cfg, HostPrefetch: true})
				l := newParkLedger()
				tb.Kernel.SetParkProbe(l)
				tb.RunLoopback(ccnic.LoopbackOptions{PktSize: 64, Rate: rate * float64(pt.queues), Window: 128,
					Warmup: 5 * sim.Microsecond, Measure: 10 * sim.Microsecond})
				if steps := tb.Dev.(*device.UPI).NICSteps(); steps == 0 {
					t.Fatal("the NIC cores ran no service iteration")
				}
				for name, n := range l.procs {
					if upiCore.MatchString(name + "0") {
						t.Errorf("NIC core %s switched out %d times, want 0", name, n)
					}
				}
			})
		}
	}
}

// pcieOrOverlay matches the process name of a PCIe NIC's fetch or deliver
// engine or of an overlay forwarding thread.
var pcieOrOverlay = regexp.MustCompile(`^((E810|CX6)\.(fetch|deliver)|overlay)\d+$`)

// TestPCIeRunsNoCoroutine checks that the PCIe NICs' engines and the
// overlay's forwarding threads are bodiless processes: E810 and CX6 runs in
// closed and open loop, forwarding synthetic ingress and under an armed
// fault plan, and overlay KV runs on 4 queues with one task per thread (8
// threads), two (4) and four (2), make no coroutine switch out of (so none
// into) an engine or a thread, while the engines do move packets.
func TestPCIeRunsNoCoroutine(t *testing.T) {
	plan, err := ccnic.ParseFaultPlan("seed=1,all=0.02")
	if err != nil {
		t.Fatal(err)
	}
	noSwitch := func(t *testing.T, tb *ccnic.Testbed, l *parkLedger) {
		t.Helper()
		nic, ok := tb.Dev.(*device.PCIeNIC)
		if !ok {
			nic = tb.Dev.(*device.Overlay).Back()
		}
		if st := nic.Endpoint().Stats(); st.DMAReads == 0 || st.DMAWrites == 0 {
			t.Fatalf("the engines moved no packet: %+v", st)
		}
		for name, n := range l.procs {
			if pcieOrOverlay.MatchString(name + "0") {
				t.Errorf("%s switched out %d times, want 0", name, n)
			}
		}
	}
	for _, iface := range []ccnic.Interface{ccnic.E810, ccnic.CX6} {
		for _, mode := range []string{"closed", "open", "ingress", "faults"} {
			t.Run(fmt.Sprintf("%v/%s", iface, mode), func(t *testing.T) {
				cfg := ccnic.Config{Platform: "ICX", Interface: iface, Queues: 2, HostPrefetch: true}
				opt := ccnic.LoopbackOptions{PktSize: 1500, Window: 64,
					Warmup: 5 * sim.Microsecond, Measure: 15 * sim.Microsecond}
				switch mode {
				case "open":
					opt.Rate = 2e6
				case "ingress":
					opt.Rate = 1e6
				case "faults":
					cfg.Faults, opt.Rate = plan, 2e6
				}
				tb := ccnic.NewTestbed(cfg)
				l := newParkLedger()
				tb.Kernel.SetParkProbe(l)
				if mode == "ingress" {
					tb.RunForward(opt)
				} else {
					tb.RunLoopback(opt)
				}
				noSwitch(t, tb, l)
			})
		}
	}
	for _, iface := range []ccnic.Interface{ccnic.OverlayCCNIC, ccnic.OverlayUnopt} {
		for _, threads := range []int{8, 4, 2} {
			t.Run(fmt.Sprintf("%v/threads%d", iface, threads), func(t *testing.T) {
				tb := ccnic.NewTestbed(ccnic.Config{Platform: "ICX", Interface: iface, Queues: 4,
					OverlayThreads: threads, HostPrefetch: true})
				l := newParkLedger()
				tb.Kernel.SetParkProbe(l)
				res := tb.RunKVStore(ccnic.KVOptions{Keys: 2000, RatePerQueue: 20e6, Seed: 1,
					Warmup: 5 * sim.Microsecond, Measure: 15 * sim.Microsecond})
				if res.Gets+res.Sets == 0 {
					t.Fatal("the KV servers served no request")
				}
				noSwitch(t, tb, l)
			})
		}
	}
}
