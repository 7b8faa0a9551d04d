// Kvstore: run the CliqueMap-style key-value server over the CC-NIC
// Overlay and the direct PCIe interface, sweeping application thread
// counts — the paper's §5.7 core-savings study in miniature.
package main

import (
	"fmt"

	"ccnic"
	"ccnic/internal/sim"
)

func run(iface ccnic.Interface, threads int) float64 {
	tb := ccnic.NewTestbed(ccnic.Config{
		Platform:       "ICX",
		Interface:      iface,
		Queues:         threads,
		OverlayThreads: 2 * threads, // ignored by the direct PCIe interface
		HostPrefetch:   true,
	})
	res := tb.RunKVStore(ccnic.KVOptions{
		Dist:         "ads",
		Seed:         42,
		RatePerQueue: 10e6, // overload: measure the saturated rate
		Warmup:       30 * sim.Microsecond,
		Measure:      80 * sim.Microsecond,
	})
	return res.Mops()
}

func main() {
	fmt.Printf("Key-value store, Ads object sizes, 95%% gets, Zipf 0.75\n\n")
	fmt.Printf("%-8s %-14s %-14s\n", "threads", "CX6 direct", "CC-NIC overlay")
	for _, n := range []int{1, 2, 4, 8} {
		direct := run(ccnic.CX6, n)
		overlay := run(ccnic.OverlayCCNIC, n)
		fmt.Printf("%-8d %-14s %-14s\n", n,
			fmt.Sprintf("%.1f Mops", direct),
			fmt.Sprintf("%.1f Mops", overlay))
	}
	fmt.Println("\nThe overlay reaches a given throughput with fewer application")
	fmt.Println("threads: buffer management and signaling moved off the host cores.")
}
