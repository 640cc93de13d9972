#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the spaced service:
# start the daemon on an ephemeral port, check /healthz, run one
# /v1/measure, repeat it and require a cache hit (via /metrics), round
# trip a -cost-model log measure (cold miss, then byte-identical hit),
# lint a program, follow one traced request end to end (access log, live
# event stream, span export, latency histograms in both /metrics formats,
# pprof on the debug listener), then SIGTERM and require a clean drain.
# Dependency-free: the only client is spacectl. CI and `make serve-smoke`
# run this; the Prometheus scrape is left at ./spaced-prom-scrape.txt for
# CI to upload as an artifact.
set -eu

cd "$(dirname "$0")/.."

SMOKE_DIR=.smoke
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"

echo "==> build spaced + spacectl"
go build -o "$SMOKE_DIR/spaced" ./cmd/spaced
go build -o "$SMOKE_DIR/spacectl" ./cmd/spacectl

cat > "$SMOKE_DIR/countdown.scm" <<'EOF'
(define (f n) (if (zero? n) 0 (f (- n 1))))
EOF

echo "==> start spaced (ephemeral port, file access log, debug listener)"
"$SMOKE_DIR/spaced" -addr 127.0.0.1:0 -drain 5s \
    -access-log "$SMOKE_DIR/access.log" -debug-addr 127.0.0.1:0 \
    > "$SMOKE_DIR/spaced.out" 2> "$SMOKE_DIR/spaced.err" &
SPACED_PID=$!
trap 'kill "$SPACED_PID" 2>/dev/null || true' EXIT

# The daemon prints "spaced: listening on http://HOST:PORT" once bound,
# then the same for the debug listener.
URL=""
for _ in $(seq 1 50); do
    URL=$(sed -n 's/^spaced: listening on //p' "$SMOKE_DIR/spaced.out")
    DEBUG_URL=$(sed -n 's/^spaced: debug listening on //p' "$SMOKE_DIR/spaced.out")
    [ -n "$URL" ] && [ -n "$DEBUG_URL" ] && break
    kill -0 "$SPACED_PID" 2>/dev/null || {
        echo "spaced died on startup:"; cat "$SMOKE_DIR/spaced.err"; exit 1; }
    sleep 0.1
done
[ -n "$URL" ] || { echo "spaced never reported its address"; exit 1; }
[ -n "$DEBUG_URL" ] || { echo "spaced never reported its debug address"; exit 1; }
echo "    $URL (debug $DEBUG_URL)"

CTL="$SMOKE_DIR/spacectl -addr $URL"

# Every reply is written to its file before it is grepped. Piping through
# tee into grep -q would let grep exit at its first match and tee die of
# SIGPIPE, cutting the file short before the byte-identical checks read it.

echo "==> /healthz (status, build version, uptime)"
$CTL health > "$SMOKE_DIR/health.json"
grep -q '"ok"' "$SMOKE_DIR/health.json"
grep -q '"version"' "$SMOKE_DIR/health.json"
grep -q '"uptimeSeconds"' "$SMOKE_DIR/health.json"

echo "==> /v1/measure (cold)"
$CTL -input '(quote 10)' -cost-model fixnum measure "$SMOKE_DIR/countdown.scm" \
    > "$SMOKE_DIR/measure1.txt"
grep -q 'sfs' "$SMOKE_DIR/measure1.txt"

echo "==> /v1/measure (repeat; must hit the cache)"
$CTL -input '(quote 10)' -cost-model fixnum measure "$SMOKE_DIR/countdown.scm" \
    > "$SMOKE_DIR/measure2.txt"
cmp -s "$SMOKE_DIR/measure1.txt" "$SMOKE_DIR/measure2.txt" || {
    echo "repeated measure differs from the first"; exit 1; }
HITS=$($CTL metrics | sed -n 's/^cache\.hits  *//p')
[ -n "$HITS" ] && [ "$HITS" -ge 6 ] || {
    echo "expected >= 6 cache hits after the repeat, got '${HITS:-none}'"; exit 1; }
echo "    cache.hits = $HITS"

echo "==> /v1/measure -cost-model log (cold; a distinct cache identity)"
MISSES_BEFORE=$($CTL metrics | sed -n 's/^cache\.misses  *//p')
$CTL -input '(quote 10)' -cost-model log measure "$SMOKE_DIR/countdown.scm" \
    > "$SMOKE_DIR/measure3.txt"
grep -q 'log' "$SMOKE_DIR/measure3.txt"
MISSES_AFTER=$($CTL metrics | sed -n 's/^cache\.misses  *//p')
[ "$MISSES_AFTER" -gt "$MISSES_BEFORE" ] || {
    echo "log-model measure should miss the cache (misses $MISSES_BEFORE -> $MISSES_AFTER)"; exit 1; }

echo "==> /v1/measure -cost-model log (repeat; byte-identical cache hit)"
HITS_BEFORE=$HITS
$CTL -input '(quote 10)' -cost-model log measure "$SMOKE_DIR/countdown.scm" \
    > "$SMOKE_DIR/measure4.txt"
cmp -s "$SMOKE_DIR/measure3.txt" "$SMOKE_DIR/measure4.txt" || {
    echo "repeated log-model measure differs from the first"; exit 1; }
HITS=$($CTL metrics | sed -n 's/^cache\.hits  *//p')
[ "$HITS" -gt "$HITS_BEFORE" ] || {
    echo "repeated log-model measure should hit the cache (hits $HITS_BEFORE -> $HITS)"; exit 1; }
echo "    cache.misses = $MISSES_AFTER, cache.hits = $HITS"

echo "==> /v1/lint"
$CTL lint "$SMOKE_DIR/countdown.scm" | grep -q 'control'

echo "==> traced request: POST with X-Request-Id, then follow it"
TRACE=smoke-trace-1
$CTL -request-id "$TRACE" -input '(quote 40)' -machines tail \
    measure "$SMOKE_DIR/countdown.scm" > /dev/null

# The access log carries the trace ID and the cache outcome.
grep -q "\"trace\":\"$TRACE\"" "$SMOKE_DIR/access.log" || {
    echo "access log lacks the trace ID:"; cat "$SMOKE_DIR/access.log"; exit 1; }
grep "\"trace\":\"$TRACE\"" "$SMOKE_DIR/access.log" | grep -q '"cache":"miss"' || {
    echo "access log lacks the miss outcome"; exit 1; }

# The run's event stream replays at least one engine event (every line is
# stamped with the trace) and terminates with a stream.end record.
$CTL trace "$TRACE" > "$SMOKE_DIR/stream.ndjson"
EVENTS=$(grep -c "\"trace\":\"$TRACE\"" "$SMOKE_DIR/stream.ndjson" || true)
[ "$EVENTS" -ge 1 ] || {
    echo "run stream replayed no events:"; cat "$SMOKE_DIR/stream.ndjson"; exit 1; }
grep -q '"type":"stream.end"' "$SMOKE_DIR/stream.ndjson" || {
    echo "run stream missing stream.end"; exit 1; }
echo "    streamed $EVENTS events"

# The span export renders as a Chrome trace with the queue-wait + run pair.
$CTL -chrome trace "$TRACE" > "$SMOKE_DIR/trace.chrome.json"
grep -q '"queue-wait"' "$SMOKE_DIR/trace.chrome.json"
grep -q '"run"' "$SMOKE_DIR/trace.chrome.json"
grep -q '"cat":"span"' "$SMOKE_DIR/trace.chrome.json"

echo "==> /metrics in both formats (JSON snapshot + Prometheus text)"
$CTL -json metrics > "$SMOKE_DIR/metrics.json"
grep -q 'http.request.us{endpoint=' "$SMOKE_DIR/metrics.json" || {
    echo "JSON metrics lack the endpoint latency histogram"; exit 1; }
$CTL -prom metrics > spaced-prom-scrape.txt
grep -q '# TYPE http_request_us histogram' spaced-prom-scrape.txt || {
    echo "Prometheus exposition lacks the latency histogram"; exit 1; }
grep -q 'http_request_us_bucket{endpoint="/v1/measure",le="+Inf"}' spaced-prom-scrape.txt
grep -q 'runtime_goroutines' spaced-prom-scrape.txt
# The {id} route patterns must ride in label values; concatenated into the
# metric name their braces make the whole scrape unparseable.
grep -q 'http_requests{endpoint="/v1/runs/{id}/events"}' spaced-prom-scrape.txt || {
    echo "Prometheus exposition lacks the labeled {id}-route request counter"; exit 1; }
if grep -q '^http_requests_' spaced-prom-scrape.txt; then
    echo "Prometheus exposition regressed to route-concatenated counter names:"
    grep '^http_requests_' spaced-prom-scrape.txt
    exit 1
fi
echo "    scrape saved to ./spaced-prom-scrape.txt"

echo "==> pprof on the debug listener"
$SMOKE_DIR/spacectl -addr "$DEBUG_URL" get /debug/pprof/ > /dev/null

echo "==> graceful shutdown (SIGTERM drain)"
kill -TERM "$SPACED_PID"
i=0
while kill -0 "$SPACED_PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "spaced did not exit within 10s of SIGTERM"; exit 1; }
    sleep 0.1
done
trap - EXIT
grep -q 'spaced: stopped' "$SMOKE_DIR/spaced.out" || {
    echo "spaced did not report a clean stop:"; cat "$SMOKE_DIR/spaced.out"; exit 1; }

rm -rf "$SMOKE_DIR"
echo "==> serve smoke OK"
