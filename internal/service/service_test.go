package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tailspace/internal/analysis"
	"tailspace/internal/core"
	"tailspace/internal/obs"
	"tailspace/internal/space"
)

// countdown is the Theorem 25(b) iterative program; applied to (quote N) it
// terminates on every machine.
const countdown = "(define (f n) (if (zero? n) 0 (f (- n 1))))"

// infiniteLoop diverges under every machine.
const infiniteLoop = "((lambda (f) (f f)) (lambda (f) (f f)))"

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, req any, resp any) int {
	t.Helper()
	status, body := postCtx(t, context.Background(), url, req)
	if resp != nil && status == http.StatusOK {
		if err := json.Unmarshal(body, resp); err != nil {
			t.Fatalf("decode %s response: %v\n%s", url, err, body)
		}
	}
	return status
}

func postCtx(t *testing.T, ctx context.Context, url string, req any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return 0, nil
	}
	defer hresp.Body.Close()
	body, _ := io.ReadAll(hresp.Body)
	return hresp.StatusCode, body
}

// TestMeasureMatchesDirectRun pins the acceptance criterion: a service cell
// equals a direct engine run with the spacelab sweep options, for every
// machine in the family.
func TestMeasureMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp MeasureResponse
	req := MeasureRequest{Program: countdown, Input: "(quote 6)", CostModels: []string{"fixnum"}}
	if status := post(t, ts.URL+"/v1/measure", req, &resp); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(resp.Cells) != len(core.Variants) {
		t.Fatalf("cells = %d, want %d", len(resp.Cells), len(core.Variants))
	}
	for i, v := range core.Variants {
		want, err := core.RunApplication(countdown, "(quote 6)", core.Options{
			Variant: v, Measure: true, GCEvery: 1, MaxSteps: 5_000_000,
			CostModel: space.Fixnum,
		})
		if err != nil {
			t.Fatalf("direct run [%s]: %v", v, err)
		}
		got := resp.Cells[i]
		if got.Machine != v.Name || got.Outcome != "answer" {
			t.Fatalf("cell %d = %+v, want machine %s with an answer", i, got, v.Name)
		}
		if got.Flat != want.PeakFlat || got.Linked != want.PeakLinked ||
			got.Heap != want.PeakHeap || got.Steps != want.Steps ||
			got.ContDepth != want.PeakContDepth || got.Answer != want.Answer {
			t.Errorf("[%s] service cell %+v differs from direct run (flat %d linked %d heap %d steps %d depth %d answer %q)",
				v, got, want.PeakFlat, want.PeakLinked, want.PeakHeap, want.Steps, want.PeakContDepth, want.Answer)
		}
	}
}

// TestConcurrentRequestsCoalesceAndCache fans identical requests out
// concurrently, checks every response is identical, and checks the cache
// counters: the distinct cells are computed once (misses), the concurrent
// duplicates coalesce (joins), and a repeat of the whole request afterwards
// is served entirely from cache (hits).
func TestConcurrentRequestsCoalesceAndCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := MeasureRequest{Program: countdown, Input: "(quote 5)", Machines: []string{"tail", "gc"}}

	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := postCtx(t, context.Background(), ts.URL+"/v1/measure", req)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d saw a different response:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}

	m := s.Metrics()
	if misses := m.Counter(MetricCacheMisses); misses != 2 {
		t.Errorf("cache.misses = %d, want 2 (one per distinct cell)", misses)
	}
	joinsAndHits := m.Counter(MetricCacheJoins) + m.Counter(MetricCacheHits)
	if want := int64(clients*2 - 2); joinsAndHits != want {
		t.Errorf("joins+hits = %d, want %d", joinsAndHits, want)
	}

	// A repeat after everything has landed must be a pure cache hit.
	before := m.Counter(MetricCacheHits)
	status, _ := postCtx(t, context.Background(), ts.URL+"/v1/measure", req)
	if status != http.StatusOK {
		t.Fatalf("repeat status = %d", status)
	}
	if got := m.Counter(MetricCacheHits); got != before+2 {
		t.Errorf("cache.hits after repeat = %d, want %d", got, before+2)
	}
	if misses := m.Counter(MetricCacheMisses); misses != 2 {
		t.Errorf("repeat recomputed: cache.misses = %d, want still 2", misses)
	}
}

// TestMonitorMachinesOnTheWire pins the contract monitors' wire surface:
// both machines are selectable by name, agree with Z_tail on the answer of
// a contracted loop, reproduce the Greenberg separation in their measured
// peaks (naive grows with the input, spaceff does not), and each machine is
// its own cache identity — spaceff must not be served naive's cells.
func TestMonitorMachinesOnTheWire(t *testing.T) {
	const contracted = "(define/contract (f n) (-> number? number?) (if (zero? n) 0 (f (- n 1))))"
	s, ts := newTestServer(t, Config{})
	measure := func(machine, input string) MeasureCell {
		var resp MeasureResponse
		r := MeasureRequest{Program: contracted, Input: input,
			Machines: []string{machine}, CostModels: []string{"fixnum"}}
		if status := post(t, ts.URL+"/v1/measure", r, &resp); status != http.StatusOK {
			t.Fatalf("measure %s: status = %d", machine, status)
		}
		if len(resp.Cells) != 1 {
			t.Fatalf("measure %s: %d cells", machine, len(resp.Cells))
		}
		return resp.Cells[0]
	}

	naiveSmall := measure("naive", "(quote 8)")
	m := s.Metrics()
	missesAfterNaive := m.Counter(MetricCacheMisses)
	hitsAfterNaive := m.Counter(MetricCacheHits)

	spaceffSmall := measure("spaceff", "(quote 8)")
	if got := m.Counter(MetricCacheMisses); got != missesAfterNaive+1 {
		t.Fatalf("spaceff must be a fresh cache identity: misses = %d, want %d", got, missesAfterNaive+1)
	}
	if got := m.Counter(MetricCacheHits); got != hitsAfterNaive {
		t.Fatalf("spaceff must not hit the naive entry: hits = %d, want %d", got, hitsAfterNaive)
	}
	tailSmall := measure("tail", "(quote 8)")
	for _, c := range []MeasureCell{naiveSmall, spaceffSmall, tailSmall} {
		if c.Outcome != "answer" || c.Answer != "0" {
			t.Fatalf("[%s] = %+v, want answer 0", c.Machine, c)
		}
	}

	// At small n the prelude's peak masks the monitor chain, so the
	// separation needs an input deep enough for the chain to dominate:
	// one mon-cod frame per level puts naive's peak Θ(n) past tail's.
	naiveBig := measure("naive", "(quote 512)")
	spaceffBig := measure("spaceff", "(quote 512)")
	if naiveBig.Flat-naiveSmall.Flat < 512 {
		t.Errorf("naive monitor peak must chain with the input: %d @8 vs %d @512",
			naiveSmall.Flat, naiveBig.Flat)
	}
	if spaceffBig.Flat != spaceffSmall.Flat {
		t.Errorf("space-efficient monitor peak must not grow: %d @8 vs %d @512",
			spaceffSmall.Flat, spaceffBig.Flat)
	}
}

// TestClientDisconnectCancelsWorker submits a diverging program, drops the
// connection, and asserts the worker slot frees promptly: the cancellation
// propagated through the flight context into core.Run.
func TestClientDisconnectCancelsWorker(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxSteps: 1 << 30, RequestTimeout: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		postCtx(t, ctx, ts.URL+"/v1/eval", EvalRequest{Program: infiniteLoop})
	}()

	// Wait until the run actually occupies the pool, then disconnect.
	waitFor(t, "worker busy", func() bool { return s.Metrics().Gauge(MetricPoolBusy) == 1 })
	cancel()
	<-done
	waitFor(t, "worker freed after disconnect", func() bool {
		return s.Metrics().Gauge(MetricPoolBusy) == 0 && s.Metrics().Gauge(MetricInflight) == 0
	})

	// The freed slot must be usable: a normal request still completes.
	var resp EvalResponse
	if status := post(t, ts.URL+"/v1/eval", EvalRequest{Program: "(+ 1 2)"}, &resp); status != http.StatusOK {
		t.Fatalf("follow-up status = %d", status)
	}
	if resp.Answer != "3" {
		t.Fatalf("follow-up answer = %q", resp.Answer)
	}
}

// TestCoalescedComputationSurvivesLeaderDisconnect: the first requester
// starts a computation, a second identical request joins it, the first
// disconnects — the survivor must still get the result.
func TestCoalescedComputationSurvivesLeaderDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: time.Hour})
	// A program slow enough (hundreds of thousands of steps) to let the
	// second request join before the first finishes.
	req := EvalRequest{Program: countdown, Input: "(quote 200000)"}

	leaderCtx, dropLeader := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		postCtx(t, leaderCtx, ts.URL+"/v1/eval", req)
	}()
	waitFor(t, "leader in flight", func() bool { return s.Metrics().Gauge(MetricInflight) == 1 })

	followerDone := make(chan struct{})
	var followerStatus int
	var followerBody []byte
	go func() {
		defer close(followerDone)
		followerStatus, followerBody = postCtx(t, context.Background(), ts.URL+"/v1/eval", req)
	}()
	waitFor(t, "follower joined", func() bool { return s.Metrics().Counter(MetricCacheJoins) >= 1 })

	dropLeader()
	<-leaderDone
	<-followerDone
	if followerStatus != http.StatusOK {
		t.Fatalf("follower status = %d: %s", followerStatus, followerBody)
	}
	var resp EvalResponse
	if err := json.Unmarshal(followerBody, &resp); err != nil {
		t.Fatalf("decode follower: %v", err)
	}
	if resp.Outcome != "answer" || resp.Answer != "0" {
		t.Fatalf("follower got %+v, want answer 0", resp)
	}
}

// TestDeadlineReturns504 bounds a diverging run by the per-request timeout.
func TestDeadlineReturns504(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSteps: 1 << 30, RequestTimeout: 100 * time.Millisecond})
	status, body := postCtx(t, context.Background(), ts.URL+"/v1/eval", EvalRequest{Program: infiniteLoop})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", status, body)
	}
}

// TestServerCloseAbortsInflight models the drain deadline: Close cancels
// the base context, so a stuck in-flight run aborts instead of holding the
// process open.
func TestServerCloseAbortsInflight(t *testing.T) {
	s := New(Config{MaxSteps: 1 << 30, RequestTimeout: time.Hour})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		status, _ := postCtx(t, context.Background(), ts.URL+"/v1/eval", EvalRequest{Program: infiniteLoop})
		done <- status
	}()
	waitFor(t, "run in flight", func() bool { return s.Metrics().Gauge(MetricInflight) == 1 })
	s.Close()
	select {
	case status := <-done:
		if status != 499 {
			t.Fatalf("status = %d, want 499", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight run survived Close for 5s")
	}
}

// TestEvalOutcomes covers the distinguished non-answer outcomes.
func TestEvalOutcomes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp EvalResponse
	if status := post(t, ts.URL+"/v1/eval", EvalRequest{Program: infiniteLoop, MaxSteps: 1000}, &resp); status != http.StatusOK {
		t.Fatalf("max-steps status = %d", status)
	}
	if resp.Outcome != "max-steps" {
		t.Errorf("outcome = %q, want max-steps", resp.Outcome)
	}
	if status := post(t, ts.URL+"/v1/eval", EvalRequest{Program: "(car 1)"}, &resp); status != http.StatusOK {
		t.Fatalf("stuck status = %d", status)
	}
	if resp.Outcome != "stuck" || resp.Error == "" {
		t.Errorf("stuck outcome = %+v", resp)
	}
}

// TestLintEndpoint serves the analyzer's verdicts.
func TestLintEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	leaky := `(define (build n acc) (if (zero? n) acc (build (- n 1) (lambda () (cons n (acc))))))
(define (driver n) (build n (lambda () '())))
driver`
	var resp LintResponse
	if status := post(t, ts.URL+"/v1/lint", LintRequest{Name: "leaky", Program: leaky}, &resp); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if resp.Program != "leaky" {
		t.Errorf("program = %q", resp.Program)
	}
	var clean LintResponse
	if status := post(t, ts.URL+"/v1/lint", LintRequest{Program: countdown + "\nf"}, &clean); status != http.StatusOK {
		t.Fatalf("clean status = %d", status)
	}
	if clean.Confirmed {
		t.Errorf("countdown reported a confirmed leak: %+v", clean.LintReport)
	}
}

// TestClassifyEndpoint serves space-class certificates, with the cost
// model part of the result (and the cache identity): logarithmic pricing
// widens countdown's O(1) tail certificate to O(n).
func TestClassifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	program := countdown + "\nf"
	var word ClassifyResponse
	if status := post(t, ts.URL+"/v1/classify", ClassifyRequest{Name: "countdown", Program: program}, &word); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if word.Program != "countdown" || word.Model != "word" {
		t.Errorf("header = %q/%q, want countdown/word", word.Program, word.Model)
	}
	if c := word.CertificateFor("tail"); c.Class != analysis.ClassConstant {
		t.Errorf("word-model tail certificate = %+v, want O(1)", c)
	}
	var log ClassifyResponse
	if status := post(t, ts.URL+"/v1/classify", ClassifyRequest{Name: "countdown", Program: program, CostModel: "log"}, &log); status != http.StatusOK {
		t.Fatalf("log status = %d", status)
	}
	if c := log.CertificateFor("tail"); c.Class != analysis.ClassLinear {
		t.Errorf("log-model tail certificate = %+v, want O(n)", c)
	}
}

// TestBadRequests pins the 400 paths.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		url  string
		req  any
	}{
		{"parse error", "/v1/eval", EvalRequest{Program: "(unclosed"}},
		{"unknown machine", "/v1/eval", EvalRequest{Program: "(+ 1 2)", Machine: "zinc"}},
		{"random order", "/v1/eval", EvalRequest{Program: "(+ 1 2)", Order: "random"}},
		{"unknown cost model", "/v1/measure", MeasureRequest{Program: "(+ 1 2)", CostModels: []string{"decimal"}}},
		{"classify bad model", "/v1/classify", ClassifyRequest{Program: "(+ 1 2)", CostModel: "decimal"}},
		{"classify parse error", "/v1/classify", ClassifyRequest{Program: "(unclosed"}},
		{"bad input", "/v1/measure", MeasureRequest{Program: countdown, Input: "(((("}},
	}
	for _, tc := range cases {
		status, body := postCtx(t, context.Background(), ts.URL+tc.url, tc.req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%s), want 400", tc.name, status, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q", tc.name, body)
		}
	}
}

// TestHealthAndMetricsEndpoints exercises the GET surface.
func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", hresp.StatusCode, body)
	}

	// Serve one request, then check the registry bridged engine totals.
	var eresp EvalResponse
	if status := post(t, ts.URL+"/v1/eval", EvalRequest{Program: "(+ 1 2)"}, &eresp); status != http.StatusOK {
		t.Fatalf("eval status = %d", status)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap map[string]int64
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	for _, name := range []string{MetricCacheMisses, "machine.steps", obs.Labeled(MetricRequests, "endpoint", "/v1/eval")} {
		if snap[name] < 1 {
			t.Errorf("metrics[%s] = %d, want >= 1 (snapshot %v)", name, snap[name], snap)
		}
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCostModelsAreDistinctCacheIdentities pins the cache-key contract of
// the cost-model axis: the same program under two cost_model values is two
// cache entries (the second model misses, it is not served the first
// model's cells), while repeating a model is a pure hit. The peaks must
// also differ — under LogModel pointers widen with the live store.
func TestCostModelsAreDistinctCacheIdentities(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := func(model string) MeasureResponse {
		var resp MeasureResponse
		r := MeasureRequest{Program: countdown, Input: "(quote 6)",
			Machines: []string{"tail"}, CostModels: []string{model}}
		if status := post(t, ts.URL+"/v1/measure", r, &resp); status != http.StatusOK {
			t.Fatalf("measure %s: status = %d", model, status)
		}
		return resp
	}

	word := req("word")
	m := s.Metrics()
	missesAfterWord := m.Counter(MetricCacheMisses)
	hitsAfterWord := m.Counter(MetricCacheHits)

	logResp := req("log")
	if got := m.Counter(MetricCacheMisses); got != missesAfterWord+1 {
		t.Fatalf("log model must be a fresh cache identity: misses = %d, want %d", got, missesAfterWord+1)
	}
	if got := m.Counter(MetricCacheHits); got != hitsAfterWord {
		t.Fatalf("log model must not hit the word entry: hits = %d, want %d", got, hitsAfterWord)
	}
	if word.Cells[0].CostModel != "word" || logResp.Cells[0].CostModel != "log" {
		t.Fatalf("cells mislabeled: %q / %q", word.Cells[0].CostModel, logResp.Cells[0].CostModel)
	}
	if word.Cells[0].Flat >= logResp.Cells[0].Flat {
		t.Fatalf("log-model peak (%d) must exceed word-model peak (%d): pointers widen",
			logResp.Cells[0].Flat, word.Cells[0].Flat)
	}

	again := req("log")
	if got := m.Counter(MetricCacheHits); got != hitsAfterWord+1 {
		t.Fatalf("repeat log request must hit: hits = %d, want %d", got, hitsAfterWord+1)
	}
	if again.Cells[0] != logResp.Cells[0] {
		t.Fatalf("cached cell differs: %+v vs %+v", again.Cells[0], logResp.Cells[0])
	}
}

// TestBackendFieldIsRejected pins that the wire API has one engine: a body
// naming "backend" is an unknown field, answered 400 before any run, on both
// endpoints that once took one.
func TestBackendFieldIsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ path, body string }{
		{"/v1/eval", `{"program": "(+ 1 2)", "backend": "stepper"}`},
		{"/v1/measure", `{"program": "(+ 1 2)", "backend": "compiled"}`},
	} {
		status, body := postCtx(t, context.Background(), ts.URL+tc.path, json.RawMessage(tc.body))
		if status != http.StatusBadRequest {
			t.Fatalf("%s with backend: status = %d, want 400\n%s", tc.path, status, body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, `unknown field "backend"`) {
			t.Fatalf("%s with backend: error does not name the field: %s", tc.path, body)
		}
	}
}
