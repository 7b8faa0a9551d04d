// Package ccnic is a simulation-backed reproduction of "CC-NIC: a
// Cache-Coherent Interface to the NIC" (ASPLOS 2024).
//
// The package assembles complete testbeds — a simulated dual-socket server
// (Ice Lake or Sapphire Rapids), a coherent or PCIe NIC interface, and host
// threads — and exposes the paper's DPDK-style data-plane API (Fig 5):
// buffer alloc/free plus TX/RX bursts, all in virtual time on a
// deterministic discrete-event kernel.
//
// A minimal session:
//
//	tb := ccnic.NewTestbed(ccnic.Config{Platform: "ICX", Interface: ccnic.CCNIC, Queues: 1})
//	tb.Dev.Start()
//	tb.Kernel.Spawn("app", func(p *sim.Proc) {
//	    q := tb.Dev.Queue(0)
//	    bufs := make([]*ccnic.Buf, 1)
//	    q.Port().AllocBurst(p, 64, bufs)      // ccnic_buf_alloc
//	    bufs[0].Len = 64
//	    tb.Hosts[0].StreamWrite(p, bufs[0].Addr, 64)
//	    q.TxBurst(p, bufs)                    // ccnic_tx_burst
//	    // ... poll q.RxBurst, then q.Release  (ccnic_rx_burst / buf_free)
//	})
//	tb.Kernel.RunUntil(time)
//
// See DESIGN.md for the model inventory and EXPERIMENTS.md for the
// paper-versus-measured results.
package ccnic

import (
	"fmt"

	"ccnic/internal/bufpool"
	"ccnic/internal/coherence"
	"ccnic/internal/device"
	"ccnic/internal/fault"
	"ccnic/internal/loopback"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
	"ccnic/internal/stats"
	"ccnic/internal/trace"
)

// Buf is a packet buffer (re-exported from the buffer pool).
type Buf = bufpool.Buf

// Queue is one host-side NIC queue pair with burst TX/RX semantics.
type Queue = device.Queue

// Device is a NIC interface instance.
type Device = device.Device

// Agent is a simulated CPU core issuing memory operations.
type Agent = coherence.Agent

// Interface selects the host-NIC interface design.
type Interface int

// The host-NIC interfaces the paper evaluates.
const (
	// CCNIC is the paper's optimized coherent interface.
	CCNIC Interface = iota
	// UnoptUPI is the E810 software interface run over coherent memory.
	UnoptUPI
	// E810 is the Intel E810 PCIe NIC.
	E810
	// CX6 is the NVIDIA ConnectX-6 Dx PCIe NIC.
	CX6
	// OverlayCCNIC is the CC-NIC Overlay: a CC-NIC front-end bridged to
	// a CX6 by forwarding threads on the NIC socket (§4).
	OverlayCCNIC
	// OverlayUnopt is the overlay with the unoptimized UPI front-end.
	OverlayUnopt
)

func (i Interface) String() string {
	switch i {
	case CCNIC:
		return "CC-NIC"
	case UnoptUPI:
		return "UPI unopt"
	case E810:
		return "E810"
	case CX6:
		return "CX6"
	case OverlayCCNIC:
		return "CC-NIC Overlay"
	case OverlayUnopt:
		return "UPI unopt Overlay"
	}
	return fmt.Sprintf("Interface(%d)", int(i))
}

// Config assembles a testbed.
type Config struct {
	// Platform is "ICX" or "SPR" (default "ICX"); Plat overrides it with
	// explicit parameters (e.g. a Derate()d platform for sensitivity
	// studies).
	Platform string
	Plat     *platform.Platform

	// Interface selects the NIC design (default CCNIC).
	Interface Interface

	// Queues is the number of host threads / queue pairs (default 1).
	Queues int

	// SameSocket places the coherent NIC's processing units on the host
	// socket, eliminating cross-UPI transfers (Fig 18).
	SameSocket bool

	// OverlayThreads is the forwarding thread count for overlay
	// interfaces (default: one per queue, the paper's "UPI 1-1").
	OverlayThreads int

	// HostPrefetch / NICPrefetch enable hardware prefetching per socket.
	// The paper's default operating point is host-only prefetching.
	HostPrefetch bool
	NICPrefetch  bool

	// UPI optionally overrides the coherent interface design point for
	// ablations (Figs 14, 15). Ignored by PCIe interfaces.
	UPI *device.UPIConfig

	// Protocol selects the coherent-interconnect protocol backend: "UPI"
	// (the default, also chosen by "") or "CXL". PCIe interfaces (E810,
	// CX6) still build the coherent memory system for the host side, so
	// the selection applies to every interface; only the UPI/CXL design
	// points move their data plane across the protocol's link.
	Protocol string

	// Faults optionally arms a deterministic fault-injection plan (see
	// internal/fault). Nil or an unarmed plan injects nothing and leaves
	// every transcript byte-identical to a fault-free run.
	Faults *fault.Plan
}

// FaultPlan re-exports the fault plan type.
type FaultPlan = fault.Plan

// ParseFaultPlan re-exports the fault-plan spec parser ("seed=7,link=0.002").
func ParseFaultPlan(spec string) (*fault.Plan, error) { return fault.ParsePlan(spec) }

// Protocol re-exports the coherence protocol selector.
type Protocol = coherence.Protocol

// The protocol backends.
const (
	ProtoUPI = coherence.ProtoUPI
	ProtoCXL = coherence.ProtoCXL
)

// ParseProtocol re-exports the protocol-name parser ("upi", "cxl", "").
func ParseProtocol(name string) (Protocol, error) { return coherence.ParseProtocol(name) }

// Testbed is an assembled simulation: kernel, memory system, device, and
// one host agent per queue. A testbed is one coherence domain, run on one
// kernel: descriptor rings, doorbells, and payload lines interleave at
// cacheline granularity with no latency seam to cut, so it is never
// partitioned across shards. internal/cluster builds multi-host topologies on
// the parallel shard engine, partitioned at their fabric boundaries.
type Testbed struct {
	Kernel *sim.Kernel
	Sys    *coherence.System
	Dev    Device
	Hosts  []*Agent
	Plat   *platform.Platform
	Iface  Interface
}

// NewTestbed builds a testbed from the configuration. It panics on invalid
// configurations (programmer error), matching the package's
// construction-time validation style.
func NewTestbed(cfg Config) *Testbed {
	plat := cfg.Plat
	if plat == nil {
		name := cfg.Platform
		if name == "" {
			name = "ICX"
		}
		var err error
		if plat, err = platform.Lookup(name); err != nil {
			panic("ccnic: " + err.Error())
		}
	}
	queues := cfg.Queues
	if queues == 0 {
		queues = 1
	}
	if queues > plat.CoresPerSocket {
		panic(fmt.Sprintf("ccnic: %d queues exceed %s's %d cores per socket",
			queues, plat.Name, plat.CoresPerSocket))
	}

	proto, err := coherence.ParseProtocol(cfg.Protocol)
	if err != nil {
		panic("ccnic: " + err.Error())
	}

	k := sim.New()
	sys := coherence.NewSystemProto(k, plat, proto)
	sys.SetPrefetch(0, cfg.HostPrefetch)
	sys.SetPrefetch(1, cfg.NICPrefetch)

	// Arm the fault injector before any device is built so every layer
	// observes it from its first event; the schedule is then a pure
	// function of (plan seed, kernel event order).
	if cfg.Faults.Armed() {
		sys.SetFaults(fault.NewInjector(cfg.Faults))
	}

	hosts := make([]*Agent, queues)
	for i := range hosts {
		hosts[i] = sys.NewAgent(0, fmt.Sprintf("host%d", i))
	}

	tb := &Testbed{Kernel: k, Sys: sys, Hosts: hosts, Plat: plat, Iface: cfg.Interface}

	nicSocket := 1
	if cfg.SameSocket {
		nicSocket = 0
	}
	newNICAgents := func(n int) []*Agent {
		out := make([]*Agent, n)
		for i := range out {
			out[i] = sys.NewAgent(nicSocket, fmt.Sprintf("nic%d", i))
		}
		return out
	}

	upiCfg := func(base device.UPIConfig) device.UPIConfig {
		if cfg.UPI != nil {
			return *cfg.UPI
		}
		return base
	}

	switch cfg.Interface {
	case CCNIC:
		tb.Dev = device.NewUPI("CC-NIC", sys, upiCfg(device.CCNICConfig()), hosts, newNICAgents(queues))
	case UnoptUPI:
		tb.Dev = device.NewUPI("UPI-unopt", sys, upiCfg(device.UnoptConfig()), hosts, newNICAgents(queues))
	case E810:
		tb.Dev = device.NewPCIeNIC(sys, platform.E810(), hosts)
	case CX6:
		tb.Dev = device.NewPCIeNIC(sys, platform.CX6(), hosts)
	case OverlayCCNIC, OverlayUnopt:
		base := device.CCNICConfig()
		if cfg.Interface == OverlayUnopt {
			base = device.UnoptConfig()
		}
		nOv := cfg.OverlayThreads
		if nOv == 0 {
			nOv = queues
		}
		if nOv > plat.CoresPerSocket {
			panic(fmt.Sprintf("ccnic: %d overlay threads exceed %s's %d cores per socket",
				nOv, plat.Name, plat.CoresPerSocket))
		}
		tb.Dev = device.NewOverlay(sys, upiCfg(base), platform.CX6(), hosts, newNICAgents(nOv))
	default:
		panic(fmt.Sprintf("ccnic: unknown interface %v", cfg.Interface))
	}
	return tb
}

// LoopbackOptions configures a loopback measurement on a testbed; see the
// loopback package for field semantics.
type LoopbackOptions struct {
	PktSize int
	Rate    float64 // per-queue offered packets/s; 0 = closed loop
	Window  int
	TxBatch int
	RxBatch int
	Warmup  sim.Time
	Measure sim.Time
}

// LoopbackResult re-exports the loopback measurement result.
type LoopbackResult = loopback.Result

// RunLoopback runs the paper's loopback workload on the testbed and returns
// throughput and latency measurements. The testbed's kernel is consumed;
// build a fresh testbed per measurement.
func (tb *Testbed) RunLoopback(opt LoopbackOptions) LoopbackResult {
	return tb.RunLoopbackTraced(opt, nil)
}

// RunLoopbackTraced is RunLoopback with optional packet-lifecycle sampling
// (a nil tracer disables it).
func (tb *Testbed) RunLoopbackTraced(opt LoopbackOptions, tr *trace.Tracer) LoopbackResult {
	return loopback.Run(loopback.Config{
		Sys:     tb.Sys,
		Dev:     tb.Dev,
		Hosts:   tb.Hosts,
		PktSize: opt.PktSize,
		Rate:    opt.Rate,
		Window:  opt.Window,
		TxBatch: opt.TxBatch,
		RxBatch: opt.RxBatch,
		Warmup:  opt.Warmup,
		Measure: opt.Measure,
		Trace:   tr,
	})
}

// Histogram re-exports the latency histogram type.
type Histogram = stats.Histogram

// Tracer re-exports the packet-lifecycle tracer (see internal/trace).
type Tracer = trace.Tracer

// NewTracer creates a tracer sampling one in every packets, keeping at
// most keep records.
func NewTracer(every, keep int) *Tracer { return trace.New(every, keep) }
