package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The suite's source annotations. Each is a line comment of the form
// `//ccnic:<key> [free-text rationale]`; DESIGN.md §5 documents the
// conventions.
const (
	// AnnotAtomic marks the start of a critical region (or, on a function
	// declaration, the whole body): between this marker and the matching
	// AnnotAtomicEnd (or the function's end), no call may yield control to
	// another simulated process. This is the static form of the
	// "structures must be consistent at every yield point" invariant.
	AnnotAtomic = "atomic"
	// AnnotAtomicEnd closes the innermost open atomic region.
	AnnotAtomicEnd = "atomic-end"
	// AnnotNoalloc marks a function that must not heap-allocate in steady
	// state (the paths guarded by AllocsPerRun tests).
	AnnotNoalloc = "noalloc"
	// AnnotNondetOK suppresses detlint on its line (or the line below):
	// the flagged construct is audited nondeterminism that cannot reach
	// model output (host-side measurement, deterministic fan-out).
	AnnotNondetOK = "nondet-ok"
	// AnnotAllocOK suppresses alloclint on its line (or the line below):
	// an audited slow-path or warm-up allocation inside a noalloc function.
	AnnotAllocOK = "alloc-ok"
	// AnnotYields marks a function as a yield root for yieldlint, for
	// yields the call-graph walk cannot see (function-pointer indirection)
	// and for self-contained analyzer fixtures.
	AnnotYields = "yields"
	// AnnotOwns marks a function that returns an owned bufpool buffer:
	// ownlint requires every caller to release or transfer the result
	// exactly once on every path.
	AnnotOwns = "owns"
	// AnnotTransfer marks a function that takes ownership of its
	// buffer-typed parameters (*Buf and []*Buf): passing a tracked buffer
	// to it counts as the buffer's single release/transfer. Free and the
	// ring handoff points carry it; it is the only way a function consumes
	// a buffer.
	AnnotTransfer = "transfer"
	// AnnotOwnOK suppresses ownlint on its line (or the line below): an
	// audited exception to the linear-ownership discipline, with a
	// rationale.
	AnnotOwnOK = "own-ok"
	// AnnotDefaultOK marks the default clause of a switch over a protocol
	// or model enum as intentionally non-exhaustive, with a reason
	// exhaustlint requires to be non-empty (`//ccnic:default-ok <why>`).
	AnnotDefaultOK = "default-ok"
)

const annotPrefix = "//ccnic:"

// annot is one parsed //ccnic: marker: its key and the free-text argument
// after it (a rationale for the suppression keys, a required reason for
// AnnotDefaultOK).
type annot struct {
	key  string
	arg  string
	pos  token.Pos
	line int
}

// fileAnnots indexes one file's //ccnic: markers.
type fileAnnots struct {
	all    []annot // in position order
	byLine map[int][]annot
}

// parseAnnot splits a comment into its annotation key and argument, if it is
// one.
func parseAnnot(text string) (key, arg string, ok bool) {
	if !strings.HasPrefix(text, annotPrefix) {
		return "", "", false
	}
	rest := text[len(annotPrefix):]
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest, arg = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	return rest, arg, rest != ""
}

// fileAnnotsOf builds (once) the annotation index for f.
func (pr *Program) fileAnnotsOf(f *ast.File) *fileAnnots {
	if fa, ok := pr.annots[f]; ok {
		return fa
	}
	fa := &fileAnnots{byLine: map[int][]annot{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			key, arg, ok := parseAnnot(c.Text)
			if !ok {
				continue
			}
			line := pr.Fset.Position(c.Pos()).Line
			a := annot{key: key, arg: arg, pos: c.Pos(), line: line}
			fa.all = append(fa.all, a)
			fa.byLine[line] = append(fa.byLine[line], a)
		}
	}
	pr.annots[f] = fa
	return fa
}

// fileOf returns the syntax file of pkg containing pos, or nil.
func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// Suppressed reports whether a //ccnic:<key> marker covers pos: on the same
// source line (trailing comment) or on the line directly above it.
func (pr *Program) Suppressed(pkg *Package, pos token.Pos, key string) bool {
	_, ok := pr.AnnotArg(pkg, pos, key)
	return ok
}

// AnnotArg returns the argument of the //ccnic:<key> marker covering pos (same
// line or the line directly above), and whether one exists.
func (pr *Program) AnnotArg(pkg *Package, pos token.Pos, key string) (string, bool) {
	f := fileOf(pkg, pos)
	if f == nil {
		return "", false
	}
	fa := pr.fileAnnotsOf(f)
	line := pr.Fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, a := range fa.byLine[l] {
			if a.key == key {
				return a.arg, true
			}
		}
	}
	return "", false
}

// FuncAnnotated reports whether fd carries //ccnic:<key> in its doc comment
// or on the line directly above its declaration.
func (pr *Program) FuncAnnotated(pkg *Package, fd *ast.FuncDecl, key string) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if k, _, ok := parseAnnot(c.Text); ok && k == key {
				return true
			}
		}
	}
	_, ok := pr.AnnotArg(pkg, fd.Pos(), key)
	return ok
}

// posRange is a half-open source region [start, end).
type posRange struct{ start, end token.Pos }

func (r posRange) contains(p token.Pos) bool { return r.start <= p && p < r.end }

// AtomicRegions returns the //ccnic:atomic regions of fd's body: each marker
// opens a region that runs to the next //ccnic:atomic-end marker, or to the
// end of the function if none follows. A function-level annotation makes the
// whole body one region.
func (pr *Program) AtomicRegions(pkg *Package, fd *ast.FuncDecl) []posRange {
	if fd.Body == nil {
		return nil
	}
	var regions []posRange
	if pr.FuncAnnotated(pkg, fd, AnnotAtomic) {
		regions = append(regions, posRange{fd.Body.Pos(), fd.Body.End()})
	}
	f := fileOf(pkg, fd.Pos())
	if f == nil {
		return regions
	}
	fa := pr.fileAnnotsOf(f)
	var open *posRange
	for _, a := range fa.all {
		if a.pos < fd.Body.Pos() || a.pos >= fd.Body.End() {
			continue
		}
		switch a.key {
		case AnnotAtomic:
			if open != nil {
				open.end = a.pos
				regions = append(regions, *open)
			}
			open = &posRange{start: a.pos, end: fd.Body.End()}
		case AnnotAtomicEnd:
			if open != nil {
				open.end = a.pos
				regions = append(regions, *open)
				open = nil
			}
		}
	}
	if open != nil {
		regions = append(regions, *open)
	}
	return regions
}
