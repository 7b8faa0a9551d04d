#!/usr/bin/env bash
# Behaviour parity against a base revision: copies BASE and the working tree
# into one temporary directory, builds cmd/ccbench in each, runs every
# artifact listed in cmd/ccbench/parity.txt in both, and prints one table
# that marks each artifact identical or differing, with its first differing
# line. Run from the repository root:
#
#   bash cmd/ccbench/parity.sh BASE      (what `make parity BASE=<rev>` runs)
#
# Exits 1 if any artifact differs. Everything it writes, the Go build cache
# included, lives under one temporary directory (mktemp -d, so TMPDIR places
# it). It is removed at exit, except that when an artifact differs its out/
# directory, every transcript from both trees, is kept and its path printed.
set -euo pipefail

base=${1:-}
[[ -n $base ]] || { echo "usage: bash cmd/ccbench/parity.sh BASE" >&2; exit 2; }
rev=$(git rev-parse --verify -q "$base^{commit}") || { echo "parity: unknown revision $base" >&2; exit 2; }
list=$PWD/cmd/ccbench/parity.txt

tmp=$(mktemp -d)
differ=0
cleanup() {
	if ((differ)); then
		rm -rf "$tmp/base" "$tmp/head" "$tmp/gocache" "$tmp/gotmp"
		echo "parity: transcripts kept in $tmp/out" >&2
	else
		rm -rf "$tmp"
	fi
}
trap cleanup EXIT
mkdir -p "$tmp/base" "$tmp/head" "$tmp/out" "$tmp/gotmp"
export GOCACHE="$tmp/gocache" GOTMPDIR="$tmp/gotmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

git archive "$rev" | tar -x -C "$tmp/base"
# The working tree as it stands: tracked and untracked files, not ignored
# ones, and not tracked files deleted from the tree.
git ls-files -z -co --exclude-standard | while IFS= read -r -d '' f; do
	if [[ -e $f ]]; then printf '%s\0' "$f"; fi
done | tar --null -T - -cf - | tar -x -C "$tmp/head"

for side in base head; do
	echo "parity: building $side" >&2
	go -C "$tmp/$side" build -o ccbench ./cmd/ccbench
done

# first_diff A B prints the first line at which files A and B differ.
first_diff() {
	local n
	n=$(cmp "$1" "$2" 2>&1 | sed -n 's/.* line \([0-9]*\).*/\1/p' || true)
	printf 'at line %s\n    base: %s\n    head: %s' "$n" "$(sed -n "${n}p" "$1")" "$(sed -n "${n}p" "$2")"
}

rows=()
while read -r name cmd; do
	[[ -z $name || $name == \#* ]] && continue
	for side in base head; do
		echo "parity: $name ($side)" >&2
		out="$tmp/out/$name.$side.txt"
		status=0
		(cd "$tmp/$side" && bash -c "$cmd") </dev/null >"$out.raw" 2>&1 || status=$?
		grep -v 'completed in' "$out.raw" >"$out" || true
		echo "exit $status" >>"$out"
		rm "$out.raw"
	done
	if cmp -s "$tmp/out/$name.base.txt" "$tmp/out/$name.head.txt"; then
		rows+=("$(printf '%-16s identical  %s lines' "$name" "$(wc -l <"$tmp/out/$name.head.txt")")")
	else
		differ=1
		rows+=("$(printf '%-16s DIFFERS    %s' "$name" "$(first_diff "$tmp/out/$name.base.txt" "$tmp/out/$name.head.txt")")")
	fi
done <"$list"

echo "parity: $base ($(git rev-parse --short "$rev")) against the working tree"
printf '%s\n' "${rows[@]}"
exit $differ
