package coherence

import "testing"

// FuzzParseProtocol: ParseProtocol never panics, and a protocol it
// accepts round-trips through String. Seeds live in
// testdata/fuzz/FuzzParseProtocol; go test runs them as plain tests.
func FuzzParseProtocol(f *testing.F) {
	for _, name := range []string{"", "upi", "CXL", "nvlink"} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		p, err := ParseProtocol(name)
		if err != nil {
			return
		}
		if q, err := ParseProtocol(p.String()); err != nil || q != p {
			t.Fatalf("ParseProtocol(%q) = %v, but its String %q parses to %v, %v", name, p, p.String(), q, err)
		}
	})
}
