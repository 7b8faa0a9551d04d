package main

import (
	"strings"
	"testing"

	"ccnic/internal/platform"
)

// TestCheckFlags checks the -cores range: 0 (every core) to the platform's
// cores per socket.
func TestCheckFlags(t *testing.T) {
	plat := platform.ByName("ICX")
	cases := []struct {
		cores int
		ok    bool
	}{
		{0, true},
		{1, true},
		{plat.CoresPerSocket, true},
		{-1, false},
		{plat.CoresPerSocket + 1, false},
		{999, false},
	}
	for _, tc := range cases {
		err := checkFlags(tc.cores, plat)
		if tc.ok && err != nil {
			t.Errorf("-cores %d rejected: %v", tc.cores, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "-cores")) {
			t.Errorf("-cores %d: got %v, want an error naming -cores", tc.cores, err)
		}
	}
}
