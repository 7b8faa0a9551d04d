package ccnic

import (
	"ccnic/internal/kvstore"
	"ccnic/internal/loopback"
	"ccnic/internal/rpcstack"
	"ccnic/internal/sim"
	"ccnic/internal/traffic"
)

// ForwardResult re-exports the header-only forwarding result.
type ForwardResult = loopback.ForwardResult

// RunForward runs the §6 network-function workload on the testbed: ingress
// packets of PktSize arrive at Rate per queue (which must be positive),
// host threads read one header line per packet and retransmit the buffer.
// The testbed's device must support ingress injection (all built-in
// interfaces do).
func (tb *Testbed) RunForward(opt LoopbackOptions) ForwardResult {
	return loopback.RunForward(loopback.Config{
		Sys:     tb.Sys,
		Dev:     tb.Dev,
		Hosts:   tb.Hosts,
		PktSize: opt.PktSize,
		Rate:    opt.Rate,
		RxBatch: opt.RxBatch,
		Warmup:  opt.Warmup,
		Measure: opt.Measure,
	})
}

// KVOptions configures a key-value store run on a testbed.
type KVOptions struct {
	// Keys in the store (default 100k) and their size distribution:
	// "ads", "geo", or a fixed byte size via FixedSize.
	Keys      int
	Dist      string
	FixedSize int

	RatePerQueue float64 // offered requests/s per server thread
	Seed         int64

	Warmup  sim.Time
	Measure sim.Time
}

// KVResult re-exports the key-value benchmark result.
type KVResult = kvstore.Result

// RunKVStore runs the CliqueMap-style key-value workload (§5.7) on the
// testbed: requests arrive as NIC ingress, each host agent runs one server
// thread. Works on any ingress-capable interface (PCIe direct or overlay).
func (tb *Testbed) RunKVStore(opt KVOptions) KVResult {
	if opt.Keys == 0 {
		opt.Keys = 100_000
	}
	var dist *traffic.SizeDist
	switch {
	case opt.FixedSize > 0:
		dist = traffic.FixedSize(opt.FixedSize)
	case opt.Dist == "geo":
		dist = traffic.Geo(opt.Seed + 1)
	default:
		dist = traffic.Ads(opt.Seed + 1)
	}
	return kvstore.Run(kvstore.Config{
		Sys:          tb.Sys,
		Dev:          tb.Dev,
		Hosts:        tb.Hosts,
		Store:        kvstore.NewStore(tb.Sys, 0, opt.Keys, dist),
		Seed:         opt.Seed,
		RatePerQueue: opt.RatePerQueue,
		Warmup:       opt.Warmup,
		Measure:      opt.Measure,
	})
}

// RPCOptions configures a TCP echo RPC run.
type RPCOptions struct {
	RPCSize      int     // default 64
	RatePerQueue float64 // offered RPCs/s per fast-path thread
	Warmup       sim.Time
	Measure      sim.Time
}

// RPCResult re-exports the RPC benchmark result.
type RPCResult = rpcstack.Result

// RunRPC runs the TAS-style echo RPC workload (§5.7) on the testbed. The
// testbed's host agents act as the TCP fast-path threads; one extra
// application agent is created for the echo server.
func (tb *Testbed) RunRPC(opt RPCOptions) RPCResult {
	app := tb.Sys.NewAgent(0, "rpc-app")
	return rpcstack.Run(rpcstack.Config{
		Sys:          tb.Sys,
		Dev:          tb.Dev,
		FastPath:     tb.Hosts,
		App:          app,
		RPCSize:      opt.RPCSize,
		RatePerQueue: opt.RatePerQueue,
		Warmup:       opt.Warmup,
		Measure:      opt.Measure,
	})
}
