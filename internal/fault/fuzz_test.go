package fault

import "testing"

// FuzzParsePlan: ParsePlan never panics, and a plan it accepts prints
// (String) a spec that parses back to an equal plan. Seeds live in
// testdata/fuzz/FuzzParsePlan; go test runs them as plain tests.
func FuzzParsePlan(f *testing.F) {
	for _, spec := range []string{"", "none", "seed=7,dbdrop=0.01", "all=0.005", "link=1,seed=-3"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil || p == nil {
			return
		}
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q) = %v, but its String %q does not parse: %v", spec, p, p.String(), err)
		}
		if q == nil || *q != *p {
			t.Fatalf("ParsePlan(%q) = %+v, but its String %q parses to %+v", spec, *p, p.String(), q)
		}
	})
}
