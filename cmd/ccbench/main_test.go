package main

import (
	"strings"
	"testing"

	"ccnic"
)

// TestCheckFlags checks each rejection path with a message naming the
// flag, and that valid combinations resolve their IDs, plan and protocol.
func TestCheckFlags(t *testing.T) {
	defaults := flagValues{ids: []string{"fig13", "table2"}, shards: 1}
	cases := []struct {
		name string
		edit func(v *flagValues)
		want string // substring of the error; "" means accepted
	}{
		{"defaults", func(v *flagValues) {}, ""},
		{"quick sharded", func(v *flagValues) { v.quick, v.shards = true, 4 }, ""},
		{"golden", func(v *flagValues) { v.golden = "experiments_full.txt" }, ""},
		{"hashes", func(v *flagValues) { v.hashes = "h.json" }, ""},
		{"faults", func(v *flagValues) { v.faults = "seed=7,all=0.005" }, ""},
		{"explicit upi with golden", func(v *flagValues) { v.protocol, v.golden = "upi", "g" }, ""},
		{"cxl", func(v *flagValues) { v.protocol = "cxl" }, ""},
		{"two ports", func(v *flagValues) { v.ports = 2 }, ""},
		{"zero shards", func(v *flagValues) { v.shards = 0 }, "-shards"},
		{"negative shards", func(v *flagValues) { v.shards = -1 }, "-shards"},
		{"unknown id", func(v *flagValues) { v.ids = append(v.ids, "fig99") }, `unknown experiment "fig99"`},
		{"golden with quick", func(v *flagValues) { v.golden, v.quick = "g", true }, "-golden compares full-scale output"},
		{"bad fault spec", func(v *flagValues) { v.faults = "bogus=0.1" }, `unknown class "bogus"`},
		{"bad fault rate", func(v *flagValues) { v.faults = "link=2" }, "must be in [0,1]"},
		{"bad protocol", func(v *flagValues) { v.protocol = "nvlink" }, `unknown protocol "nvlink"`},
		{"faults with golden", func(v *flagValues) { v.faults, v.golden = "all=0.01", "g" }, "-faults"},
		{"faults with hashes", func(v *flagValues) { v.faults, v.hashes = "all=0.01", "h" }, "-faults"},
		{"cxl with golden", func(v *flagValues) { v.protocol, v.golden = "cxl", "g" }, "-protocol CXL"},
		{"cxl with hashes", func(v *flagValues) { v.protocol, v.hashes = "cxl", "h" }, "-protocol CXL"},
		{"ports with golden", func(v *flagValues) { v.ports, v.golden = 8, "g" }, "-ports"},
		{"ports with hashes", func(v *flagValues) { v.ports, v.hashes = 8, "h" }, "-ports"},
		{"one port", func(v *flagValues) { v.ports = 1 }, "-ports needs at least 2"},
		{"negative ports", func(v *flagValues) { v.ports = -4 }, "-ports needs at least 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := defaults
			v.ids = append([]string(nil), defaults.ids...)
			tc.edit(&v)
			c, err := checkFlags(v)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected valid flags: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted invalid flags, want an error naming %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not name %q", err, tc.want)
			case tc.want == "":
				if len(c.exps) != len(v.ids) {
					t.Errorf("resolved %d experiments for %d IDs", len(c.exps), len(v.ids))
				}
				if (c.plan != nil) != (v.faults != "") {
					t.Errorf("fault plan %v for -faults %q", c.plan, v.faults)
				}
				if (c.proto == ccnic.ProtoCXL) != (v.protocol == "cxl") {
					t.Errorf("protocol %v for -protocol %q", c.proto, v.protocol)
				}
			}
		})
	}
}
