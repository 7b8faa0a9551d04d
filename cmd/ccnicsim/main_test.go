package main

import (
	"math"
	"strings"
	"testing"

	"ccnic/internal/platform"
)

// TestCheckFlags checks that each out-of-range flag value is rejected with a
// message naming the flag, and that the defaults and range edges pass.
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
		{"negative measure", func(v *flagValues) { v.measure = -5 }, "-measure -5"},
		{"zero measure", func(v *flagValues) { v.measure = 0 }, "-measure 0"},
		{"NaN measure", func(v *flagValues) { v.measure = math.NaN() }, "-measure NaN"},
		{"negative rate", func(v *flagValues) { v.rate = -1 }, "-rate -1"},
		{"infinite rate", func(v *flagValues) { v.rate = math.Inf(1) }, "-rate +Inf"},
		{"negative window", func(v *flagValues) { v.window = -1 }, "-window -1"},
		{"negative txbatch", func(v *flagValues) { v.txBatch = -1 }, "-txbatch -1"},
		{"negative rxbatch", func(v *flagValues) { v.rxBatch = -1 }, "-rxbatch -1"},
		{"negative overlay threads", func(v *flagValues) { v.overlayThreads = -1 }, "-overlay-threads -1"},
		{"negative bulk", func(v *flagValues) { v.bulk = -1 }, "-bulk -1"},
		{"negative shards", func(v *flagValues) { v.shards = -1 }, "-shards -1"},
		{"unknown dist", func(v *flagValues) { v.dist = "bogus" }, `-dist "bogus"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := defaults
			tc.edit(&v)
			err := checkFlags(v, plat)
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
