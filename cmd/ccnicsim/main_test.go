package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"ccnic"
	"ccnic/internal/loopback"
	"ccnic/internal/platform"
)

// TestMain runs the command itself when a test re-executes the test binary
// with CCNICSIM_MAIN set, so tests can check its exit status and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("CCNICSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestPlatformRejected checks that a platform name the command does not
// model exits 2 before anything runs, and that the removed CXL platform
// points at the protocol backend that replaced it.
func TestPlatformRejected(t *testing.T) {
	for _, tc := range []struct{ platform, want string }{
		{"CXL", "-protocol cxl"},
		{"cxl", "-protocol cxl"},
		{"nope", `unknown platform "nope" (ICX or SPR)`},
	} {
		t.Run(tc.platform, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-platform", tc.platform)
			cmd.Env = append(os.Environ(), "CCNICSIM_MAIN=1")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("-platform %s: %v, want exit status 2", tc.platform, err)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("-platform %s: stderr %q does not name %q", tc.platform, stderr.String(), tc.want)
			}
		})
	}
}

// TestCheckFlags checks that each out-of-range flag value, and each flag the
// selected workload would ignore, is rejected with a message naming the
// flag, and that the defaults, the range edges and every ccnicsim
// invocation the documentation shows pass. A -pkt that passes checkFlags is
// then bounded by a built testbed's host buffers, as main does.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name, args string
		want       string // substring of the error; "" means accepted
	}{
		{"defaults", "", ""},
		{"one queue", "-queues 1", ""},
		{"every core", "-queues 16", ""},
		{"zero loopback knobs", "-rate 0 -window 0 -txbatch 0 -rxbatch 0", "-window 0: want at least 1"},
		{"zero overlay threads", "-iface overlay -overlay-threads 0", ""},
		{"zero cluster knobs", "-workload cluster -window 0 -bulk 0 -shards 0", "-window 0: want at least 1"},
		{"zero rate", "-rate 0", ""},
		{"zero window", "-window 0", "-window 0: want at least 1"},
		{"zero cluster window", "-workload cluster -window 0", "-window 0: want at least 1"},
		{"zero txbatch", "-txbatch 0", "-txbatch 0: want at least 1"},
		{"zero rxbatch", "-rxbatch 0", "-rxbatch 0: want at least 1"},
		{"zero bulk", "-workload cluster -bulk 0", ""},
		{"zero shards", "-workload cluster -shards 0", ""},
		{"unit loopback knobs", "-window 1 -txbatch 1 -rxbatch 1", ""},
		{"geo", "-workload kv -dist geo", ""},
		{"negative queues", "-queues -2", "-queues -2"},
		{"zero queues", "-queues 0", "-queues 0"},
		{"too many queues", "-queues 99", "-queues 99"},
		{"negative pkt", "-pkt -64", "-pkt -64"},
		{"zero pkt", "-pkt 0", "-pkt 0"},
		{"buffer-size pkt", "-pkt 4096", ""},
		{"16 KiB pkt", "-pkt 16384", "16384-byte packets exceed the 4096-byte host buffers"},
		{"32 KiB pkt", "-pkt 32768", "32768-byte packets exceed the 4096-byte host buffers"},
		{"negative measure", "-measure -5", "-measure -5"},
		{"zero measure", "-measure 0", "-measure 0"},
		{"NaN measure", "-measure NaN", "-measure NaN"},
		{"negative rate", "-rate -1", "-rate -1"},
		{"infinite rate", "-rate +Inf", "-rate +Inf"},
		{"negative window", "-window -1", "-window -1"},
		{"negative txbatch", "-txbatch -1", "-txbatch -1"},
		{"negative rxbatch", "-rxbatch -1", "-rxbatch -1"},
		{"negative overlay threads", "-iface overlay -overlay-threads -1", "-overlay-threads -1"},
		{"overlay thread per core", "-iface overlay -overlay-threads 16", ""},
		{"too many overlay threads", "-iface overlay -overlay-threads 17", "-overlay-threads 17: want 0 to 16 (ICX cores per socket)"},
		{"64 overlay threads", "-iface overlay-unopt -overlay-threads 64", "-overlay-threads 64: want 0 to 16 (ICX cores per socket)"},
		{"negative bulk", "-workload cluster -bulk -1", "-bulk -1"},
		{"negative shards", "-workload cluster -shards -1", "-shards -1"},
		{"unknown dist", "-workload kv -dist bogus", `-dist "bogus"`},
		{"unknown workload", "-workload bogus", `unknown workload "bogus"`},

		// A flag the selected workload never reads.
		{"hosts off cluster", "-hosts 8", "-hosts: -workload loopback ignores it (workloads that read it: cluster)"},
		{"incast off cluster", "-workload kv -incast", "-incast: -workload kv ignores it"},
		{"bulk off cluster", "-workload rpc -bulk 2", "-bulk: -workload rpc ignores it"},
		{"shards off cluster", "-shards 2", "-shards: -workload loopback ignores it"},
		{"signal off cluster", "-signal pcie", "-signal: -workload loopback ignores it"},
		{"reliable off cluster", "-workload forward -reliable", "-reliable: -workload forward ignores it"},
		{"trace off loopback", "-workload forward -trace", "-trace: -workload forward ignores it (workloads that read it: loopback)"},
		{"txbatch off loopback", "-workload rpc -txbatch 8", "-txbatch: -workload rpc ignores it"},
		{"rxbatch off loopback", "-workload kv -rxbatch 8", "-rxbatch: -workload kv ignores it"},
		{"window on kv", "-workload kv -window 32", "-window: -workload kv ignores it (workloads that read it: loopback, cluster)"},
		{"dist off kv", "-dist geo", "-dist: -workload loopback ignores it (workloads that read it: kv)"},
		{"pkt on kv", "-workload kv -pkt 128", "-pkt: -workload kv ignores it"},
		{"iface on cluster", "-workload cluster -iface e810", "-iface: -workload cluster ignores it"},
		{"queues on cluster", "-workload cluster -queues 2", "-queues: -workload cluster ignores it"},
		{"rate on cluster", "-workload cluster -rate 1e6", "-rate: -workload cluster ignores it"},
		{"prefetch on cluster", "-workload cluster -prefetch=false", "-prefetch: -workload cluster ignores it"},
		{"overlay threads on cluster", "-workload cluster -overlay-threads 2", "-overlay-threads: -workload cluster ignores it"},
		{"overlay threads off overlay", "-iface ccnic -overlay-threads 2", "-overlay-threads: -iface ccnic has no overlay threads"},

		// The invocations README, EXPERIMENTS, the package comment and the
		// verify notes show.
		{"readme trace", "-iface ccnic -queues 8 -trace", ""},
		{"readme cxl", "-iface ccnic -protocol cxl", ""},
		{"readme faults", "-iface e810 -faults seed=3,dbdrop=0.25", ""},
		{"readme cluster", "-workload cluster -hosts 8", ""},
		{"readme incast", "-workload cluster -hosts 8 -incast -bulk 2 -signal pcie", ""},
		{"readme chaos", "-workload cluster -reliable -switches 2 -faults seed=3,blackhole=0.02", ""},
		{"experiments cluster", "-workload cluster -hosts 8 -window 32 -pkt 4096 -measure 40000", ""},
		{"doc 64B", "-iface ccnic -queues 8 -pkt 64", ""},
		{"doc e810 rate", "-iface e810 -queues 4 -pkt 1536 -rate 2e6", ""},
		{"doc SPR trace", "-platform SPR -iface unopt -queues 16 -trace", ""},
		{"doc overlay kv", "-iface overlay -workload kv -dist geo -queues 4", ""},
		{"doc cxl forward", "-platform SPR -protocol cxl -iface ccnic -queues 8 -workload forward", ""},
		{"verify two hosts", "-workload cluster -hosts 1", ""}, // cluster.Config.Validate rejects it later
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := parseFlags(flag.NewFlagSet("ccnicsim", flag.ContinueOnError), strings.Fields(tc.args))
			if err != nil {
				t.Fatalf("parse %q: %v", tc.args, err)
			}
			plat := platform.ByName(v.platform)
			err = checkFlags(v, plat)
			if err == nil && v.workload != "kv" && v.workload != "cluster" {
				tb := ccnic.NewTestbed(ccnic.Config{Plat: plat, Interface: ccnic.CCNIC, Queues: v.queues})
				err = loopback.CheckPktSize(v.pkt, tb.Dev)
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected valid flags: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted invalid flags, want an error naming %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}
