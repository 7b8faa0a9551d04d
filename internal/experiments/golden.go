package experiments

import (
	"fmt"
	"os"
	"strings"
)

// Golden is a committed ccbench transcript split into its sections, keyed
// by experiment ID: experiments_full.txt pins full scale and
// experiments_quick.txt quick scale. A transcript is ccbench's stdout as
// printed, each Section followed by a blank line (the wall-clock trailers
// go to stderr). ccbench -golden and the root determinism tests compare
// sections through Diff, the only section differ.
type Golden map[string]string

// ReadGolden reads the transcript at path and splits it at its "== id:"
// section headers.
func ReadGolden(path string) (Golden, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, id := make(Golden), ""
	for _, line := range strings.SplitAfter(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ = strings.Cut(rest, ":")
		}
		if id != "" {
			g[id] += line
		}
	}
	return g, nil
}

// Diff compares experiment id's section, as Section renders it, with its
// golden section, both without their trailing blank lines. It returns nil
// when the two are identical, and otherwise an error naming the experiment
// and its first differing line.
func (g Golden) Diff(id, section string) error {
	want, ok := g[id]
	if !ok {
		return fmt.Errorf("no section for %s", id)
	}
	wantLines := strings.Split(strings.TrimRight(want, "\n"), "\n")
	gotLines := strings.Split(strings.TrimRight(section, "\n"), "\n")
	for i := range max(len(wantLines), len(gotLines)) {
		if w, got := lineAt(wantLines, i), lineAt(gotLines, i); w != got {
			return fmt.Errorf("%s diverges at line %d:\n  golden: %s\n  got:    %s", id, i+1, w, got)
		}
	}
	return nil
}

// lineAt quotes line i of lines, or marks the section's end.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return fmt.Sprintf("%q", lines[i])
	}
	return "(end of section)"
}
