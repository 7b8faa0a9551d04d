package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCacheKeyCoversLocalReplaces checks that the load cache key of a module
// that replaces another with a local directory (as cmd/ccperf replaces the
// root module) changes when a source file in that directory changes, so a
// cached go list never outlives the sources it listed.
func TestCacheKeyCoversLocalReplaces(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("lib/go.mod", "module lib\n")
	write("lib/a.go", "package lib\n")
	write("app/go.mod", "module app\n\nrequire lib v0.0.0\n\nreplace (\n\tlib => ../lib\n)\n")
	write("app/main.go", "package main\n")
	app := filepath.Join(root, "app")

	if got, want := localReplaces(app), []string{filepath.Join(root, "lib")}; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("localReplaces = %v, want %v", got, want)
	}
	before, err := cacheKey(app, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	write("lib/b.go", "package lib\n")
	after, err := cacheKey(app, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Error("adding a file to the replaced module left the cache key unchanged")
	}
}
