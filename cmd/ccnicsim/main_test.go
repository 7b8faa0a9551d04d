package main

import (
	"errors"
	"math"
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

// TestCheckFlags checks that each out-of-range flag value is rejected with a
// message naming the flag, and that the defaults and range edges pass. A
// -pkt that passes checkFlags is then bounded by a built testbed's host
// buffers, as main does.
func TestCheckFlags(t *testing.T) {
	plat := platform.ByName("ICX")
	defaults := flagValues{queues: 4, pkt: 64, window: 128, txBatch: 32, rxBatch: 32, measure: 150, dist: "ads"}
	cases := []struct {
		name string
		edit func(v *flagValues)
		want string // substring of the error; "" means accepted
	}{
		{"defaults", func(v *flagValues) {}, ""},
		{"one queue", func(v *flagValues) { v.queues = 1 }, ""},
		{"every core", func(v *flagValues) { v.queues = plat.CoresPerSocket }, ""},
		{"zero knobs", func(v *flagValues) {
			v.rate, v.window, v.txBatch, v.rxBatch, v.overlayThreads, v.bulk, v.shards = 0, 0, 0, 0, 0, 0, 0
		}, ""},
		{"geo", func(v *flagValues) { v.dist = "geo" }, ""},
		{"negative queues", func(v *flagValues) { v.queues = -2 }, "-queues -2"},
		{"zero queues", func(v *flagValues) { v.queues = 0 }, "-queues 0"},
		{"too many queues", func(v *flagValues) { v.queues = 99 }, "-queues 99"},
		{"negative pkt", func(v *flagValues) { v.pkt = -64 }, "-pkt -64"},
		{"zero pkt", func(v *flagValues) { v.pkt = 0 }, "-pkt 0"},
		{"buffer-size pkt", func(v *flagValues) { v.pkt = 4096 }, ""},
		{"16 KiB pkt", func(v *flagValues) { v.pkt = 16384 }, "16384-byte packets exceed the 4096-byte host buffers"},
		{"32 KiB pkt", func(v *flagValues) { v.pkt = 32768 }, "32768-byte packets exceed the 4096-byte host buffers"},
		{"negative measure", func(v *flagValues) { v.measure = -5 }, "-measure -5"},
		{"zero measure", func(v *flagValues) { v.measure = 0 }, "-measure 0"},
		{"NaN measure", func(v *flagValues) { v.measure = math.NaN() }, "-measure NaN"},
		{"negative rate", func(v *flagValues) { v.rate = -1 }, "-rate -1"},
		{"infinite rate", func(v *flagValues) { v.rate = math.Inf(1) }, "-rate +Inf"},
		{"negative window", func(v *flagValues) { v.window = -1 }, "-window -1"},
		{"negative txbatch", func(v *flagValues) { v.txBatch = -1 }, "-txbatch -1"},
		{"negative rxbatch", func(v *flagValues) { v.rxBatch = -1 }, "-rxbatch -1"},
		{"negative overlay threads", func(v *flagValues) { v.overlayThreads = -1 }, "-overlay-threads -1"},
		{"overlay thread per core", func(v *flagValues) { v.overlayThreads = plat.CoresPerSocket }, ""},
		{"too many overlay threads", func(v *flagValues) { v.overlayThreads = 17 }, "-overlay-threads 17: want 0 to 16 (ICX cores per socket)"},
		{"64 overlay threads", func(v *flagValues) { v.overlayThreads = 64 }, "-overlay-threads 64: want 0 to 16 (ICX cores per socket)"},
		{"negative bulk", func(v *flagValues) { v.bulk = -1 }, "-bulk -1"},
		{"negative shards", func(v *flagValues) { v.shards = -1 }, "-shards -1"},
		{"unknown dist", func(v *flagValues) { v.dist = "bogus" }, `-dist "bogus"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := defaults
			tc.edit(&v)
			err := checkFlags(v, plat)
			if err == nil {
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
