#!/usr/bin/env bash
# Text-layout tripwire. sock_stream's setup_s moves with where
# math/rand.read lands in the benchmark binary (ROADMAP, "the alignment
# trap"): a change that shifts it moves that metric with no change to the
# code the workload runs. This script builds ./benchmark as
# benchmark/bench.sh does, once at BASE_REF (in a temporary git worktree)
# and once in the working tree, and diffs their defined text symbols
# (go tool nm -n, sorted by address and then name) up to math/rand.read.
# It exits 1 on any difference and names the first symbol that moved.
#
#   bash .github/text-layout.sh BASE_REF
set -euo pipefail
base=${1:?usage: bash .github/text-layout.sh BASE_REF}
cd "$(dirname "$0")/.."
tree=$PWD
tmp=$(mktemp -d)
trap 'git -C "$tree" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/base" "$base"

# listing DIR OUT: build DIR's benchmark into DIR/.bench_build and write
# its text symbols up to and including math/rand.read to OUT. The build
# cache does not change the binary, so both builds share the tree's.
listing() {
	(cd "$1" && mkdir -p .bench_build &&
		GOCACHE="$tree/.bench_build/gocache" go build -o .bench_build/dynacc-benchmark ./benchmark)
	go tool nm -n "$1/.bench_build/dynacc-benchmark" |
		awk '$2 == "T" || $2 == "t"' | LC_ALL=C sort -k1,1 -k3 |
		sed -n '1,/ math\/rand\.read$/p' >"$2"
	if ! tail -n 1 "$2" | grep -q ' math/rand\.read$'; then
		echo "text-layout: no math/rand.read in $1's benchmark binary" >&2
		exit 1
	fi
}
listing "$tmp/base" "$tmp/base.txt"
listing "$tree" "$tmp/tree.txt"

if ! cmp -s "$tmp/base.txt" "$tmp/tree.txt"; then
	echo "text-layout: the text before math/rand.read differs from $base." >&2
	diff --unchanged-line-format= --old-line-format='base: %L' \
		--new-line-format='tree: %L' "$tmp/base.txt" "$tmp/tree.txt" >"$tmp/diff" || true
	echo "First symbol that moved, as each side lists it:" >&2
	{ grep -m1 '^base:' "$tmp/diff" || echo 'base: (none)'; grep -m1 '^tree:' "$tmp/diff" || echo 'tree: (none)'; } >&2
	echo "math/rand.read: base $(tail -n 1 "$tmp/base.txt" | awk '{print $1}'), tree $(tail -n 1 "$tmp/tree.txt" | awk '{print $1}')" >&2
	exit 1
fi
echo "text-layout: $(wc -l <"$tmp/tree.txt") text symbols up to math/rand.read match $base ($(tail -n 1 "$tmp/tree.txt"))"
