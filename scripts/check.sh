#!/bin/sh
# check.sh — the full local gate: build, vet, race-enabled tests.
# Usage: scripts/check.sh [extra go test flags...]
# CI and `make check` both run this; keep it dependency-free (POSIX sh).
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

# gofmt -l lists every file whose formatting differs from gofmt's, across
# both modules (perfbench/ included); any output fails the gate.
echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting (run gofmt -w):"
    echo "$unformatted"
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go test -race ./... $*"
# Explicit -timeout: the race detector runs the heavy differential suites
# 5-10x slower than plain, and a single-core runner can brush against go
# test's default 10m per-package limit.
go test -race -timeout 20m "$@" ./...

# perfbench is a module of its own (replace tailspace => ../), so the root
# module's build and tests never compile it; an API change can break the
# benchmark unseen. Both steps are offline and take seconds.
echo "==> perfbench (go -C perfbench vet/test)"
go -C perfbench vet ./...
go -C perfbench test ./...

echo "==> serve smoke (scripts/serve_smoke.sh)"
sh scripts/serve_smoke.sh

# External static analyzers, pinned so every machine runs the same
# versions. Installed on demand into ./bin; when the module proxy is
# unreachable (offline dev container) the install fails and the analyzer
# is skipped — the repo's own gates above have already run.
STATICCHECK_VERSION=2025.1
GOVULNCHECK_VERSION=v1.1.4

resolve_tool() {
    # resolve_tool NAME MODULE@VERSION: prefer a previously pinned ./bin
    # install, then install, then fall back to any PATH copy.
    if [ -x "bin/$1" ]; then
        echo "bin/$1"
    elif GOBIN="$(pwd)/bin" go install "$2" >/dev/null 2>&1; then
        echo "bin/$1"
    elif command -v "$1" 2>/dev/null; then
        :
    fi
}

STATICCHECK=$(resolve_tool staticcheck "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION")
if [ -n "$STATICCHECK" ]; then
    echo "==> staticcheck ./... ($STATICCHECK)"
    "$STATICCHECK" ./...
else
    echo "==> staticcheck unavailable (offline?); skipping"
fi

GOVULNCHECK=$(resolve_tool govulncheck "golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION")
if [ -n "$GOVULNCHECK" ]; then
    echo "==> govulncheck ./... ($GOVULNCHECK)"
    "$GOVULNCHECK" ./...
else
    echo "==> govulncheck unavailable (offline?); skipping"
fi

echo "==> check OK"
