// Package device implements the four host-NIC interfaces the paper
// evaluates, all above the same simulated substrates:
//
//   - UPI (upi.go): a software NIC on the second socket reached through the
//     coherence model. One implementation covers the full design space via
//     Config toggles: the optimized CC-NIC interface (inline signals,
//     grouped descriptors, shared pool, recycling, small buffers,
//     non-sequential fill, NIC-side buffer management) down to the
//     "unoptimized UPI" baseline (the E810's register-signaled layout and
//     host-only buffer management run over coherent memory), plus every
//     intermediate ablation of Figs 14 and 15.
//
//   - PCIe (pcidev.go): the Intel E810 and NVIDIA CX6 device pipelines
//     reached through MMIO doorbells and DMA, with DDIO cache interactions.
//
//   - Overlay (overlay.go): the CC-NIC Overlay of §4 — a CC-NIC UPI
//     front-end bridged to a PCIe NIC by forwarding threads on the NIC
//     socket, used for the application studies.
//
// Every device presents per-queue TX/RX burst semantics (the DPDK-style API
// of Fig 5) and loops TX packets back to the same queue's RX side, matching
// the paper's loopback methodology; devices can instead inject synthetic
// ingress traffic for the application workloads.
package device

import (
	"ccnic/internal/bufpool"
	"ccnic/internal/sim"
)

// Queue is the host-side view of one NIC queue pair, bound to one host
// thread. TxBurst submits packets; RxBurst returns received packets; after
// consuming RX payloads the application returns buffers with Release.
type Queue interface {
	// TxBurst submits up to len(bufs) packets, returning how many were
	// accepted. The caller must have written payloads already.
	TxBurst(p *sim.Proc, bufs []*bufpool.Buf) int
	// RxBurst receives up to len(out) packets.
	RxBurst(p *sim.Proc, out []*bufpool.Buf) int
	// Release returns consumed RX buffers to the interface (freeing them
	// to the pool and, for PCIe-style interfaces, reposting blanks).
	Release(p *sim.Proc, bufs []*bufpool.Buf)
	// Port returns the buffer-pool port for this queue's host thread,
	// used to allocate TX buffers.
	Port() *bufpool.Port
}

// Device is a NIC interface with a fixed set of queue pairs.
type Device interface {
	Name() string
	NumQueues() int
	// Queue returns queue i's host-side handle.
	Queue(i int) Queue
	// Start spawns the device-side processes on the kernel.
	Start()
	// Stop makes the device-side processes exit at their next iteration.
	Stop()
	// Kernel returns the simulation kernel the device's processes run on.
	// It is the device's shard affinity: in a partitioned simulation
	// (internal/sim/shard), a device and everything it touches — memory
	// system, queues, host agents — must live on the same shard, so the
	// kernel identifies it.
	Kernel() *sim.Kernel
}

// Injector is implemented by devices that can synthesize ingress packets
// (for the application workloads, where traffic arrives from the network
// rather than from loopback).
type Injector interface {
	// SetIngress switches queue i from loopback to synthetic ingress:
	// gen is called for each injected packet to choose its size, and the
	// device delivers packets of that size at up to the given rate
	// (packets/second). TX packets are consumed and counted instead of
	// looped. A nil gen restores loopback.
	SetIngress(i int, rate float64, gen func() int)
	// TxCount returns packets transmitted (consumed) on queue i since
	// Start, for ingress-mode throughput accounting.
	TxCount(i int) int64
}
