// Package platform describes the simulated machines: the dual-socket Ice
// Lake (ICX) and Sapphire Rapids (SPR) servers used by the CC-NIC paper, and
// the PCIe NICs (Intel E810, NVIDIA ConnectX-6) they are compared against.
//
// Every number here is a calibration input, taken either from the paper's
// own microbenchmarks (Figs 2, 3, 7, 8, 9; §5.1 testbed description) or from
// public platform documentation. End-to-end results (Figs 11-21) are *not*
// encoded here; they emerge from the models in the coherence, pcie, device,
// and loopback packages.
package platform

import (
	"fmt"
	"strings"

	"ccnic/internal/sim"
)

// CacheLine is the coherence granule for both sockets and all interconnects.
const CacheLine = 64

// Platform describes one dual-socket server.
type Platform struct {
	Name           string
	CoresPerSocket int
	CPUGHz         float64

	// Cache capacities per the paper's §5.1.
	L2Bytes  int64 // per-core private L2
	LLCBytes int64 // per-socket shared LLC

	// Load-to-use latencies for a 64B object, calibrated to Fig 7.
	L2Hit      sim.Time // own-L2 hit
	LLCHit     sim.Time // own-socket LLC hit
	LocalFwd   sim.Time // "L L2": dirty forward from another core, same socket
	LocalDRAM  sim.Time // "L DRAM"
	RemoteDRAM sim.Time // "R DRAM"
	RemoteRH   sim.Time // "R L2 (rh)": remote dirty L2, writer/remote-homed
	RemoteLH   sim.Time // "R L2 (lh)": remote dirty L2, reader/local-homed

	// RemoteInval is a cross-socket ownership upgrade (invalidate-only
	// snoop, no data payload). Slightly cheaper than a data transfer.
	RemoteInval sim.Time

	// Streaming bandwidth, bytes per nanosecond.
	CoreStreamBW   float64 // per-core local cacheable store/copy bandwidth
	RemoteStreamBW float64 // per-core cross-socket pipelined streaming read
	NTWritePenalty float64 // link-cost multiplier for nontemporal writes (Fig 9)

	// UPI link: effective data bandwidth per direction, calibrated to the
	// paper's mlc measurement (443 Gbps ICX, 1020 Gbps SPR).
	UPIBandwidth float64  // bytes per ns per direction
	UPIHeader    int      // protocol overhead bytes accompanying a 64B flit
	UPICtrlMsg   int      // bytes of a dataless protocol message
	UPIRawGBs    float64  // marketing raw bandwidth, for Table 1
	UPILinks     int      // link count, for Table 1
	UPIGTs       float64  // transfer rate, for Table 1
	PollGap      sim.Time // cost of one poll-loop iteration hitting local L2

	// WCBuffers is the per-core WC store buffer count (Fig 3 knee).
	WCBuffers int

	PCIe PCIeParams

	// CXL is the CXL.cache/CXL.mem attach point used when the coherent
	// interconnect runs the CXL protocol backend instead of UPI (see
	// internal/coherence's protocol interface). The parameters coexist
	// with the UPI ones: a platform describes the machine, the protocol
	// selection decides which set the interconnect is built from.
	CXL CXLParams

	// Derating knobs for the Fig 21 sensitivity study; 1.0 = nominal.
	UncoreLatScale float64
	UncoreBWScale  float64
}

// CXLParams describes a CXL x16 attach point between the host socket and the
// device. Latencies follow the CXL Consortium's published 170-250ns expected
// access range and the calibration points of Cohet and "A Novel Extensible
// Simulation Framework for CXL-Enabled Systems"; bandwidth is a single x16
// link at the platform's PCIe-generation signaling rate, carried in 68-byte
// flits (64B data + 4B header/CRC) — a much thinner pipe than a multi-link
// UPI mesh, which is exactly the trade the proto-sweep experiment measures.
type CXLParams struct {
	MemRead  sim.Time // cross-link read served from far DRAM (CXL.mem, or a CXL.cache miss to host DRAM)
	CacheFwd sim.Time // cross-link read served out of a far cache (host-side hit for a device request)
	Snoop    sim.Time // host snoop of the device cache (H2D crossing for a host-homed line)
	Inval    sim.Time // invalidate-only crossing (ownership grant, no data payload)
	BiasFlip sim.Time // device reclaim of a host-bias HDM line (roundtrip through the host)

	LinkBandwidth float64 // effective data bytes/ns per direction
	FlitHeader    int     // protocol bytes accompanying each 64B data flit (68B flit => 4)
	CtrlMsg       int     // wire bytes of a dataless protocol message

	RawGBs float64 // raw signaling bandwidth, for reporting
	GTs    float64 // transfer rate, for reporting
}

// PCIeParams describes the host PCIe 4.0 x16 slot shared by both NICs.
type PCIeParams struct {
	LinkBandwidth float64  // usable bytes/ns per direction (252 Gbps => 31.5)
	OneWay        sim.Time // posted-write / TLP propagation, one way
	DMARoundTrip  sim.Time // device-initiated read roundtrip, zero-length
	WCFlushMMIO   sim.Time // WC buffer drain time to device BAR
	WCFlushDRAM   sim.Time // WC buffer drain time to (NT) DRAM
	NTStoreBW     float64  // single-core nontemporal store bandwidth, B/ns
	WBStoreBW     float64  // single-core write-back store bandwidth, B/ns
}

// ICX returns the Ice Lake testbed: dual Xeon Gold 6346, 3.1 GHz, 16 cores
// per socket, 3x11.2 GT/s UPI, PCIe 4.0.
func ICX() *Platform {
	return &Platform{
		Name:           "ICX",
		CoresPerSocket: 16,
		CPUGHz:         3.1,
		L2Bytes:        1280 << 10, // 1.25 MB
		LLCBytes:       36 << 20,

		L2Hit:      4 * sim.Nanosecond,
		LLCHit:     21 * sim.Nanosecond,
		LocalFwd:   48 * sim.Nanosecond,
		LocalDRAM:  72 * sim.Nanosecond,
		RemoteDRAM: 144 * sim.Nanosecond,
		RemoteRH:   114 * sim.Nanosecond,
		RemoteLH:   119 * sim.Nanosecond,

		RemoteInval: 100 * sim.Nanosecond,

		CoreStreamBW:   20.0,
		RemoteStreamBW: 8.0,
		NTWritePenalty: 1.8,

		UPIBandwidth: 55.4, // 443 Gbps measured by mlc
		UPIHeader:    16,
		UPICtrlMsg:   16,
		UPIRawGBs:    67.2,
		UPILinks:     3,
		UPIGTs:       11.2,
		PollGap:      5 * sim.Nanosecond,

		WCBuffers: 24,

		PCIe: PCIeParams{
			LinkBandwidth: 31.5, // 252 Gbps usable
			OneWay:        400 * sim.Nanosecond,
			DMARoundTrip:  850 * sim.Nanosecond,
			WCFlushMMIO:   214 * sim.Nanosecond,
			WCFlushDRAM:   70 * sim.Nanosecond,
			NTStoreBW:     12.0,
			WBStoreBW:     12.5,
		},

		// CXL 1.1/2.0 over the PCIe 4.0 x16 phy: 16 GT/s signaling.
		CXL: CXLParams{
			MemRead:       250 * sim.Nanosecond,
			CacheFwd:      220 * sim.Nanosecond,
			Snoop:         180 * sim.Nanosecond,
			Inval:         160 * sim.Nanosecond,
			BiasFlip:      300 * sim.Nanosecond,
			LinkBandwidth: 31.5,
			FlitHeader:    4,
			CtrlMsg:       16,
			RawGBs:        31.5,
			GTs:           16,
		},

		UncoreLatScale: 1.0,
		UncoreBWScale:  1.0,
	}
}

// SPR returns the Sapphire Rapids testbed: dual SPR at 2.0 GHz, 56 cores per
// socket, 4x16 GT/s UPI (terabit-class), PCIe 5.0.
func SPR() *Platform {
	return &Platform{
		Name:           "SPR",
		CoresPerSocket: 56,
		CPUGHz:         2.0,
		L2Bytes:        2 << 20,
		LLCBytes:       105 << 20,

		L2Hit:      5 * sim.Nanosecond,
		LLCHit:     33 * sim.Nanosecond,
		LocalFwd:   82 * sim.Nanosecond,
		LocalDRAM:  108 * sim.Nanosecond,
		RemoteDRAM: 191 * sim.Nanosecond,
		RemoteRH:   171 * sim.Nanosecond,
		RemoteLH:   174 * sim.Nanosecond,

		RemoteInval: 150 * sim.Nanosecond,

		CoreStreamBW:   16.0,
		RemoteStreamBW: 6.5,
		NTWritePenalty: 1.6,

		UPIBandwidth: 127.5, // 1020 Gbps measured by mlc
		UPIHeader:    16,
		UPICtrlMsg:   16,
		UPIRawGBs:    192,
		UPILinks:     4,
		UPIGTs:       16,
		PollGap:      6 * sim.Nanosecond,

		WCBuffers: 24,

		PCIe: PCIeParams{
			LinkBandwidth: 63.0, // PCIe 5.0 x16 usable
			OneWay:        400 * sim.Nanosecond,
			DMARoundTrip:  850 * sim.Nanosecond,
			WCFlushMMIO:   214 * sim.Nanosecond,
			WCFlushDRAM:   70 * sim.Nanosecond,
			NTStoreBW:     14.0,
			WBStoreBW:     15.0,
		},

		// CXL 2.0 over the PCIe 5.0 x16 phy: 32 GT/s signaling. MemRead
		// sits at the midpoint of the consortium's expected access range.
		CXL: CXLParams{
			MemRead:       211 * sim.Nanosecond,
			CacheFwd:      185 * sim.Nanosecond,
			Snoop:         150 * sim.Nanosecond,
			Inval:         135 * sim.Nanosecond,
			BiasFlip:      250 * sim.Nanosecond,
			LinkBandwidth: 63.0,
			FlitHeader:    4,
			CtrlMsg:       16,
			RawGBs:        63.0,
			GTs:           32,
		},

		UncoreLatScale: 1.0,
		UncoreBWScale:  1.0,
	}
}

// ByName returns the named platform ("ICX" or "SPR"), or nil.
func ByName(name string) *Platform {
	switch name {
	case "ICX", "icx":
		return ICX()
	case "SPR", "spr":
		return SPR()
	}
	return nil
}

// Lookup is ByName with an error for an unknown name. CXL is a coherence
// protocol backend that runs on either platform, not a platform of its own,
// so that name's error points at the protocol selector.
func Lookup(name string) (*Platform, error) {
	if p := ByName(name); p != nil {
		return p, nil
	}
	if strings.EqualFold(name, "cxl") {
		return nil, fmt.Errorf("platform %q: CXL is a protocol backend, not a platform; use -protocol cxl (Config.Protocol \"CXL\") on ICX or SPR", name)
	}
	return nil, fmt.Errorf("unknown platform %q (ICX or SPR)", name)
}

// Derate returns a copy of p with cross-socket latency scaled by latScale
// and interconnect bandwidth scaled by bwScale, modeling the paper's uncore
// frequency sweep (§5.9). Purely local latencies are also mildly affected,
// mirroring the paper's observation that downclocking the uncore is
// pessimistic: it slows local LLC/DRAM paths too.
func (p *Platform) Derate(latScale, bwScale float64) *Platform {
	q := *p
	scale := func(t sim.Time, s float64) sim.Time { return sim.Time(float64(t) * s) }
	// Cross-socket paths scale fully.
	q.RemoteDRAM = scale(p.RemoteDRAM, latScale)
	q.RemoteRH = scale(p.RemoteRH, latScale)
	q.RemoteLH = scale(p.RemoteLH, latScale)
	q.RemoteInval = scale(p.RemoteInval, latScale)
	// Local uncore paths scale at roughly half strength.
	half := 1 + (latScale-1)*0.5
	q.LLCHit = scale(p.LLCHit, half)
	q.LocalFwd = scale(p.LocalFwd, half)
	q.LocalDRAM = scale(p.LocalDRAM, half)
	q.UPIBandwidth = p.UPIBandwidth * bwScale
	q.RemoteStreamBW = p.RemoteStreamBW * bwScale
	// The CXL attach point scales like the other cross-socket paths, so
	// sensitivity sweeps derate both protocol backends coherently.
	q.CXL.MemRead = scale(p.CXL.MemRead, latScale)
	q.CXL.CacheFwd = scale(p.CXL.CacheFwd, latScale)
	q.CXL.Snoop = scale(p.CXL.Snoop, latScale)
	q.CXL.Inval = scale(p.CXL.Inval, latScale)
	q.CXL.BiasFlip = scale(p.CXL.BiasFlip, latScale)
	q.CXL.LinkBandwidth = p.CXL.LinkBandwidth * bwScale
	q.UncoreLatScale = latScale
	q.UncoreBWScale = bwScale
	return &q
}

// RemoteAccess returns the nominal cross-socket access latency (the quantity
// on Fig 21a's x-axis): a read of remote-socket DRAM.
func (p *Platform) RemoteAccess() sim.Time { return p.RemoteDRAM }

// FabricParams describes the inter-host network that joins several of
// these servers into a cluster: one top-of-rack switch hop of 100GbE-class
// Ethernet. These numbers are not paper calibration inputs (the paper
// measures a single machine); they are representative datacenter values
// used by the modeled switch (internal/fabric) and the multi-host cluster
// model (internal/cluster), where HopLat is the conservative lookahead of
// every host-switch shard boundary.
type FabricParams struct {
	// HopLat is the one-way cable propagation plus PHY/MAC latency of a
	// single host-to-switch (or switch-to-host) hop. It must be strictly
	// positive: it bounds how far apart the host and switch shards'
	// clocks can drift, so it is the parallel engine's lookahead.
	HopLat sim.Time
	// RouteLat is the switch's internal forwarding latency: ingress
	// parse, lookup, and crossbar traversal, before egress queuing.
	RouteLat sim.Time
	// SchedLat is the egress arbitration granularity: the delay between
	// a packet becoming queued at an idle egress port and the scheduler
	// making its next service decision. It also quantizes decisions so
	// that same-instant arrivals never race the arbiter (internal/fabric
	// relies on this for partition invariance).
	SchedLat sim.Time
	// BW is the per-port fabric bandwidth, bytes per nanosecond.
	BW float64
}

// Fabric returns the cluster fabric joining hosts of this platform:
// 100GbE (12.5 B/ns) through one switch, 750ns one way unloaded
// (300ns per hop of cable+PHY, 150ns of switch forwarding).
func (p *Platform) Fabric() FabricParams {
	return FabricParams{
		HopLat:   300 * sim.Nanosecond,
		RouteLat: 150 * sim.Nanosecond,
		SchedLat: 25 * sim.Nanosecond,
		BW:       12.5,
	}
}

// NICParams describes a PCIe NIC ASIC pipeline.
type NICParams struct {
	Name string
	// PipelineLat is the device-internal latency between completing the
	// descriptor/payload fetch and starting the loopback delivery DMA
	// (scheduling, on-chip queues, MAC-bypass loopback path).
	PipelineLat sim.Time
	// PerPacket is the device pipeline service time per packet; its
	// reciprocal is the NIC's peak packet rate.
	PerPacket sim.Time
	// DataBW is the device's rated data bandwidth (2x100GbE => 25 B/ns).
	DataBW float64
	// DescBatch is the number of descriptors fetched per DMA read.
	DescBatch int
	// MMIODesc reports whether the device supports writing descriptors
	// directly over MMIO (the CX6 low-latency path noted in §2.3).
	MMIODesc bool
}

// E810 returns the Intel E810-2CQDA2 model: high packet rate (the paper
// measures a 192 Mpps peak), deep pipeline (3.8us minimum loopback).
func E810() *NICParams {
	return &NICParams{
		Name:        "E810",
		PipelineLat: 1250 * sim.Nanosecond,
		PerPacket:   sim.FromNanos(5.2), // ~192 Mpps
		DataBW:      25.0,               // 200 GbE
		DescBatch:   8,
		MMIODesc:    false,
	}
}

// CX6 returns the NVIDIA ConnectX-6 Dx model: lower minimum latency (2.1us)
// but a lower peak packet rate (76 Mpps measured by the paper).
func CX6() *NICParams {
	return &NICParams{
		Name:        "CX6",
		PipelineLat: 120 * sim.Nanosecond,
		PerPacket:   sim.FromNanos(13.1), // ~76 Mpps
		DataBW:      25.0,
		DescBatch:   8,
		MMIODesc:    true,
	}
}
