#!/bin/sh
# benchdiff.sh — run the benchmark suite of the parent commit (HEAD^) and of
# this tree on the same host and diff them, writing the comparison to
# benchdiff.txt so CI can upload it as an artifact. Both sides run here, so
# the diff compares one machine with itself; the committed BENCH_*.json
# files are records of other hosts and are not read. Each side's suite is
# built once and run three times, alternating parent and tree, and
# cmd/benchdiff compares the median of each benchmark's three samples, so
# one slow sample on a shared runner, or drift over the run, does not decide
# the gate. The parent is checked out in a temporary git worktree, removed
# on exit; a shallow clone needs at least two commits of history
# (fetch-depth: 2).
#
# Usage: scripts/benchdiff.sh
#
# The timing comparison is a gate with a deliberately generous threshold:
# any benchmark that slows down by more than BENCH_FAIL_OVER percent
# (default 35) against the parent fails the run. Shared CI runners are too
# noisy for tight ns/op thresholds, but a 35% cliff on a benchmark present
# in both reports is a real regression, not jitter. Set BENCH_FAIL_OVER=0
# to restore report-only behaviour. Keep this script dependency-free (POSIX
# sh, git, and the repo's own cmd/benchjson and cmd/benchdiff). The tables
# guard that runs first is also a gate: the deterministic spacelab tables
# under the default word cost model must be byte-identical to
# TABLES_baseline.json.
set -eu

cd "$(dirname "$0")/.."

sh scripts/tablesguard.sh

fail_over="${BENCH_FAIL_OVER:-35}"
if ! parent="$(git rev-parse --verify --quiet 'HEAD^')"; then
    echo "benchdiff: HEAD has no parent commit to compare against (a shallow clone needs fetch-depth: 2)" >&2
    exit 1
fi

tmp="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$tmp/parent" >/dev/null 2>&1 || true
    rm -rf "$tmp"
    git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git worktree add --detach "$tmp/parent" "$parent" >/dev/null

samples=3

# build DIR NAME compiles the benchmarks in DIR into $tmp/NAME.test.
build() {
    echo "==> go test -c ($2)"
    (cd "$1" && go test -c -o "$tmp/$2.test" .)
}

# sample DIR NAME I runs the benchmarks built from DIR, in DIR, and appends
# their output to $tmp/NAME.txt. The output goes to a file first, so a
# failing benchmark fails the script, with its output shown, instead of
# vanishing into a pipe.
sample() {
    echo "==> benchmarks ($2, sample $3 of $samples)"
    if ! (cd "$1" && "$tmp/$2.test" -test.bench . -test.benchmem -test.run '^$' -test.timeout 10m) > "$tmp/$2.$3.txt"; then
        cat "$tmp/$2.$3.txt"
        echo "benchdiff: the $2 suite failed" >&2
        exit 1
    fi
    cat "$tmp/$2.$3.txt" >> "$tmp/$2.txt"
}

echo "==> parent commit $parent"
build "$tmp/parent" parent
build . tree
i=1
while [ "$i" -le "$samples" ]; do
    sample "$tmp/parent" parent "$i"
    sample . tree "$i"
    i=$((i + 1))
done
go run ./cmd/benchjson < "$tmp/parent.txt" > "$tmp/parent.json"
go run ./cmd/benchjson < "$tmp/tree.txt" > "$tmp/tree.json"

echo "==> benchdiff -fail-over $fail_over <parent> <this tree>"
# Capture to the artifact first, then echo it: a pipe through tee would
# swallow benchdiff's exit status under plain POSIX sh.
status=0
go run ./cmd/benchdiff -fail-over "$fail_over" "$tmp/parent.json" "$tmp/tree.json" > benchdiff.txt || status=$?
cat benchdiff.txt

echo "==> wrote benchdiff.txt"
exit "$status"
