# Developer entry points; `make check` is the gate CI runs.

GO ?= go

.PHONY: check build test vet bench bench-json bench-diff tables-guard classify-guard contracts-guard spacelab serve-smoke

check:
	sh scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Archive today's benchmark numbers as JSON for trend tracking, under the
# first free name of BENCH_YYYY-MM-DD.json, BENCH_YYYY-MM-DD.2.json, ...,
# so a second run on one day never overwrites the first; cmd/benchjson
# parses the go test -bench text output.
bench-json:
	@day=$$(date +%Y-%m-%d); out=BENCH_$$day.json; n=2; \
	while [ -e "$$out" ]; do out=BENCH_$$day.$$n.json; n=$$((n + 1)); done; \
	$(GO) test -bench . -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson > "$$out" && echo "wrote $$out"

# Gate: deterministic spacelab tables under the default word cost model
# must be byte-identical to the committed TABLES_baseline.json.
tables-guard:
	sh scripts/tablesguard.sh

# Gate: the corpus's per-machine space-class certificates (word model)
# must be byte-identical to the committed CLASSIFY_baseline.json.
classify-guard:
	sh scripts/classifyguard.sh

# Gate: the contract-monitor separation tables (naive Θ(n) vs spaceff
# O(1), word model) must be byte-identical to CONTRACTS_baseline.json.
contracts-guard:
	sh scripts/contractsguard.sh

# Run the tables guard (a gate), then run the benchmarks of the parent
# commit (HEAD^) and of this tree on this host and diff them; writes
# benchdiff.txt. The timing diff gates at BENCH_FAIL_OVER percent
# (default 35): a slowdown past the threshold on any benchmark present in
# both reports fails the run. BENCH_FAIL_OVER=0 makes it report-only.
bench-diff:
	sh scripts/benchdiff.sh

spacelab:
	$(GO) run ./cmd/spacelab all

# End-to-end smoke test of the spaced service: healthz, one measure, a
# cache-hit repeat, lint, and a SIGTERM drain.
serve-smoke:
	sh scripts/serve_smoke.sh
