package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenDiff checks the section differ on a two-section transcript: a
// matching section passes whatever its trailing blank lines, and a missing
// section, a changed line and an extra line each fail with the experiment
// ID, the line number and both lines.
func TestGoldenDiff(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.txt")
	transcript := "== fig7: Idle latency ==\nlocal 80\nremote 140\npaper: Fig 7\n\n" +
		"== fig8: Ping-pong ==\nrtt 900\npaper: Fig 8\n\n"
	if err := os.WriteFile(path, []byte(transcript), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := ReadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 2 {
		t.Fatalf("split %d sections, want 2: %q", len(g), g)
	}
	fig7 := "== fig7: Idle latency ==\nlocal 80\nremote 140\npaper: Fig 7\n"
	cases := []struct {
		name, id, section string
		want              []string // substrings of the error; nil means identical
	}{
		{"identical", "fig7", fig7, nil},
		{"trailing blank lines", "fig7", fig7 + "\n\n", nil},
		{"last section", "fig8", "== fig8: Ping-pong ==\nrtt 900\npaper: Fig 8\n", nil},
		{"missing section", "fig9", fig7, []string{"no section for fig9"}},
		{"changed line", "fig7", strings.Replace(fig7, "140", "141", 1),
			[]string{"fig7 diverges at line 3", `golden: "remote 140"`, `got:    "remote 141"`}},
		{"extra line", "fig7", fig7 + "extra\n",
			[]string{"fig7 diverges at line 5", "golden: (end of section)", `got:    "extra"`}},
		{"missing line", "fig7", strings.Replace(fig7, "paper: Fig 7\n", "", 1),
			[]string{"fig7 diverges at line 4", `golden: "paper: Fig 7"`, "got:    (end of section)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := g.Diff(tc.id, tc.section)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("identical section reported: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("diff not reported, want %q", tc.want)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("report %q does not contain %q", err, w)
				}
			}
		})
	}
}
