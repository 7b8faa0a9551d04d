package main

import (
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"ccnic/internal/fault"
)

// TestMatrixTable checks the two table-wide properties of matrix.sh, the
// checked quick-run matrix, that no single CI cell can see: every fault
// class has a row that arms it alone, and every family (the row name up to
// its first '-') has a row in the `make matrix` slice. Each row's flags,
// fault plan and experiment IDs are validated by ccbench itself when the
// row runs.
func TestMatrixTable(t *testing.T) {
	buf, err := os.ReadFile("matrix.sh")
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(buf), "rows='\n")
	if ok {
		body, _, ok = strings.Cut(body, "\n'\n")
	}
	if !ok {
		t.Fatal("matrix.sh has no rows='...' table")
	}

	sliced := make(map[string]bool) // family -> has a slice row
	alone := make(map[string]bool)  // class armed by a single-class row
	for _, line := range strings.Split(body, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		mark, name, faults := f[0], f[1], f[3]
		family, _, _ := strings.Cut(name, "-")
		sliced[family] = sliced[family] || mark == "*"
		if class, _, ok := strings.Cut(faults, "="); ok && !strings.Contains(faults, ",") {
			alone[class] = true
		}
	}

	for _, family := range slices.Sorted(maps.Keys(sliced)) {
		t.Run("slice/"+family, func(t *testing.T) {
			if !sliced[family] {
				t.Errorf("family %s has no row in the make matrix slice", family)
			}
		})
	}
	for _, c := range fault.Classes() {
		t.Run("class/"+c.String(), func(t *testing.T) {
			if !alone[c.String()] {
				t.Errorf("no row arms fault class %s on its own", c)
			}
		})
	}
}
