// Command mlc is a memory-latency-checker-style microbenchmark over the
// simulated platforms, mirroring how the paper uses Intel's mlc utility to
// establish best-case interconnect throughput and idle latencies (§3.3,
// §5.1). It reports the access-latency matrix and the read-only cross-UPI
// streaming throughput the end-to-end results are normalized against.
package main

import (
	"flag"
	"fmt"
	"os"

	"ccnic/internal/coherence"
	"ccnic/internal/experiments"
	"ccnic/internal/mem"
	"ccnic/internal/platform"
	"ccnic/internal/sim"
)

func main() {
	platName := flag.String("platform", "ICX", "platform: ICX or SPR")
	cores := flag.Int("cores", 0, "streaming reader cores (default: all)")
	protoStr := flag.String("protocol", "upi", "coherence protocol backend: upi or cxl")
	flag.Parse()

	plat, err := platform.Lookup(*platName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlc: %v\n", err)
		os.Exit(1)
	}
	proto, err := coherence.ParseProtocol(*protoStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlc: %v\n", err)
		os.Exit(1)
	}
	if err := checkFlags(*cores, plat); err != nil {
		fmt.Fprintf(os.Stderr, "mlc: %v\n", err)
		os.Exit(1)
	}
	if *cores == 0 {
		*cores = plat.CoresPerSocket
	}

	fmt.Printf("Simulated Memory Latency Checker — %s\n\n", plat.Name)
	latencies(plat, proto)
	fmt.Println()
	bandwidth(plat, proto, *cores)
}

// checkFlags rejects a -cores value outside 0 (every core) to the
// platform's cores per socket, before any simulation is built.
func checkFlags(cores int, plat *platform.Platform) error {
	if cores < 0 || cores > plat.CoresPerSocket {
		return fmt.Errorf("-cores %d: want 0 to %d (0 = all of %s's cores per socket)", cores, plat.CoresPerSocket, plat.Name)
	}
	return nil
}

// latencies prints the idle access-latency matrix: Fig 7's five cells,
// measured as the fig7 experiment measures them.
func latencies(plat *platform.Platform, proto coherence.Protocol) {
	k := sim.New()
	lat := experiments.IdleLatencies(k, coherence.NewSystemProto(k, plat, proto))
	fmt.Println("Idle latencies (ns):")
	for i, label := range [5]string{"local DRAM", "remote DRAM", "local L2 (dirty fwd)", "remote L2 (wr-homed)", "remote L2 (rd-homed)"} {
		fmt.Printf("  %-22s %6.0f\n", label+":", lat[i].Nanoseconds())
	}
}

// bandwidth measures read-only cross-interconnect streaming throughput —
// the paper's "maximum achievable interconnect throughput" reference point,
// measured as mlc does with a pure remote-read workload over regions too
// large to stay cached between passes.
func bandwidth(plat *platform.Platform, proto coherence.Protocol, cores int) {
	k := sim.New()
	sys := coherence.NewSystemProto(k, plat, proto)
	region := 6 << 20 // per-core region: too large to stay cached
	passes := 1
	var total int64
	for c := 0; c < cores; c++ {
		reader := sys.NewAgent(0, "r")
		base := sys.Space().Alloc(1, region, 0)
		k.Spawn("stream", func(p *sim.Proc) {
			for i := 0; i < passes; i++ {
				reader.StreamRead(p, mem.Addr(base), region)
				total += int64(region)
			}
		})
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	el := k.Now()
	fmt.Printf("Cross-%s read-only streaming, %d cores:\n", sys.Link().Label(), cores)
	fmt.Printf("  data throughput: %.0f Gbps (%.1f GB/s)\n",
		float64(total)*8/el.Nanoseconds(), float64(total)/el.Nanoseconds())
	fmt.Printf("  (paper reference: 443 Gbps ICX, 1020 Gbps SPR)\n")
}
