package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"tailspace/internal/analysis"
	"tailspace/internal/core"
	"tailspace/internal/expand"
	"tailspace/internal/obs"
	"tailspace/internal/service"
)

// serve: spaced in-process behind httptest on loopback, driven by one
// closed-loop client — spaced's callers (spacectl, CI scripts) wait for each
// reply, and a measure grid already spreads its cells over both worker slots.

// accessLog receives the server's access-log entries (service.Config.Events).
type accessLog chan obs.Event

// Emit implements obs.Sink. It never blocks the server: the client reads one
// entry per request it sends, so the buffer only overflows if the client has
// already given up on an entry.
func (a accessLog) Emit(e obs.Event) {
	if e.Type != obs.EventRequest {
		return
	}
	select {
	case a <- e:
	default:
	}
}

// spaced is one in-process server and the single client connection to it.
type spaced struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	log    accessLog
}

func startSpaced() *spaced {
	log := make(accessLog, 64)
	srv := service.New(service.Config{Events: log})
	return &spaced{
		srv: srv,
		ts:  httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		log: log,
	}
}

func (s *spaced) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

// reply is one response, its client-side latency (request written to body
// read) and the cache disposition its access-log entry reports.
type reply struct {
	status  int
	body    []byte
	trace   string
	latency time.Duration
	cache   string
}

func (s *spaced) do(method, path string, body []byte, requestID string) (reply, error) {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{latency: time.Since(t0)}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, body: b, trace: resp.Header.Get("X-Trace-Id"), latency: time.Since(t0)}
	if err != nil {
		return r, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for {
		select {
		case e := <-s.log:
			if e.Trace == r.trace {
				r.cache = e.Cache
				return r, nil
			}
		case <-timeout.C:
			return r, fmt.Errorf("%s %s: no access-log entry for trace %s", method, path, r.trace)
		}
	}
}

type serveState struct {
	rng   *rand.Rand
	progs []sweepProgram
	round int
	// a serves the measured requests; b, in traced runs only, serves the
	// same sequence with X-Request-Id set, for its spans.
	a, b *spaced
}

func serveSetup(traced bool) func(*rand.Rand) (*serveState, error) {
	return func(rng *rand.Rand) (*serveState, error) {
		s := &serveState{rng: rng, progs: sweepPrograms()}
		// Warm-up: every distinct request of one round, once, on a throwaway
		// server, so the measured server's cache starts cold.
		w := startSpaced()
		defer w.close()
		for _, snd := range serveRound(rand.New(rand.NewSource(0)), 0, s.progs) {
			if !snd.First {
				continue
			}
			r, err := w.do(http.MethodPost, snd.Req.Path, snd.Req.Body, "")
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if r.status != http.StatusOK {
				return nil, fmt.Errorf("warm-up: %s: status %d: %s", snd.Req.Path, r.status, r.body)
			}
		}
		s.a = startSpaced()
		if traced {
			s.b = startSpaced()
		}
		return s, nil
	}
}

func (s *serveState) close() {
	s.a.close()
	if s.b != nil {
		s.b.close()
	}
}

func (s *serveState) next() []serveSend {
	r := serveRound(s.rng, s.round, s.progs)
	s.round++
	return r
}

// checkSend checks one reply: status 200, the expected cache disposition,
// a correct body on the first send and a byte-identical body on repeats.
func checkSend(snd serveSend, r reply, first map[*serveReq][]byte) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", snd.Req.Path, r.status, r.body)
	}
	want := "hit"
	if snd.First {
		want = "miss"
	}
	if r.cache != want {
		return fmt.Errorf("%s: cache %q, want %q", snd.Req.Path, r.cache, want)
	}
	if !snd.First {
		if !bytes.Equal(r.body, first[snd.Req]) {
			return fmt.Errorf("%s: repeat body differs from the first response", snd.Req.Path)
		}
		return nil
	}
	first[snd.Req] = r.body
	return checkBody(snd.Req, r.body)
}

func checkBody(req *serveReq, body []byte) error {
	switch req.Kind {
	case "eval":
		var resp service.EvalResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("eval: %w", err)
		}
		if resp.Outcome != "answer" || resp.Answer != req.Answer || resp.Machine != req.Machine.Name {
			return fmt.Errorf("eval %s: got %s %q %q, want answer %q",
				req.Machine.Name, resp.Machine, resp.Outcome, resp.Answer, req.Answer)
		}
	case "measure":
		var resp service.MeasureResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("measure: %w", err)
		}
		if len(resp.Cells) != len(core.Variants) {
			return fmt.Errorf("measure: %d cells, want %d", len(resp.Cells), len(core.Variants))
		}
		flat := map[string]int{}
		for _, c := range resp.Cells {
			if c.Outcome != "answer" {
				return fmt.Errorf("measure %s: outcome %q %s", c.Machine, c.Outcome, c.Error)
			}
			if c.Answer != resp.Cells[0].Answer {
				return fmt.Errorf("measure: Corollary 20: %s answers %q, %s answers %q",
					c.Machine, c.Answer, resp.Cells[0].Machine, resp.Cells[0].Answer)
			}
			flat[c.Machine] = c.Flat
		}
		return checkPeaks(flat, nil)
	case "lint", "classify":
		var resp struct {
			Program string `json:"program"`
			Model   string `json:"model"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("%s: %w", req.Kind, err)
		}
		if resp.Program != req.Name || (req.Kind == "classify" && resp.Model != req.Model.Name()) {
			return fmt.Errorf("%s: report for %q/%q, want %q", req.Kind, resp.Program, resp.Model, req.Name)
		}
	}
	return nil
}

func runServe(cfg config) (*report, error) {
	s, setupS, err := setUp(cfg.seed, serveSetup(cfg.trace), (*serveState).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if cfg.trace {
		return traceServe(cfg, s)
	}
	rep := &report{}
	var hitMS, missMS []float64
	w := openWindow(cfg.seconds)
	for w.open() {
		first := map[*serveReq][]byte{}
		for _, snd := range s.next() {
			r, err := s.a.do(http.MethodPost, snd.Req.Path, snd.Req.Body, "")
			w.op(r.latency)
			if err == nil {
				err = checkSend(snd, r, first)
			}
			if err != nil {
				rep.fail("%v", err)
				continue
			}
			if snd.First {
				missMS = append(missMS, ms(r.latency))
			} else {
				hitMS = append(hitMS, ms(r.latency))
			}
		}
		w.endRound()
	}
	if err := w.endToEnd(rep, setupS); err != nil {
		return nil, err
	}
	rep.info.Samples = map[string]int{"hit": len(hitMS), "miss": len(missMS)}
	rep.info.Extra["hit_ms_p50"] = quantile(hitMS, 0.5)
	rep.info.Extra["hit_ms_p90"] = quantile(hitMS, 0.9)
	rep.info.Extra["miss_ms_p50"] = quantile(missMS, 0.5)
	rep.info.Extra["miss_ms_p90"] = quantile(missMS, 0.9)
	return rep, nil
}

// serveLayers accumulates what the traced serve run measures beyond
// layerCounts: server spans by name, client latencies, and direct runs.
type serveLayers struct {
	spans                map[string][]time.Duration
	httpSelf             []float64
	hitMS, missMS        []float64
	lintMS, classifyMS   []float64
	servedRun, directRun time.Duration
	hits, misses         int
	traced, expandT      time.Duration
	ratios               []float64 // b's latency over a's, per request
}

// traceServe sends each request to server a (plain) and to server b with
// X-Request-Id, fetches b's spans for it, and on a miss re-runs the
// request's work directly, with no server and no event sink.
func traceServe(cfg config, s *serveState) (*report, error) {
	rep := &report{}
	tr := &tracer{}
	c := newLayerCounts()
	l := &serveLayers{spans: map[string][]time.Duration{}}
	timer := timerCost()
	var rt rtSample
	ops := 0
	t0 := time.Now()
	limit := time.Duration(cfg.seconds) * time.Second
	for time.Since(t0) < limit {
		firstA := map[*serveReq][]byte{}
		firstB := map[*serveReq][]byte{}
		for _, snd := range s.next() {
			if time.Since(t0) >= limit {
				break
			}
			ops++
			id := fmt.Sprintf("serve-%d", ops)
			var ra, rb reply
			var errA, errB error
			var opID int
			sendA := func() {
				rt0 := readRuntime()
				ra, errA = s.a.do(http.MethodPost, snd.Req.Path, snd.Req.Body, "")
				rt = rt.add(readRuntime().sub(rt0))
				if errA == nil {
					// Fetch a's spans too, unused, so that both connections
					// carry the same traffic and differ only in X-Request-Id.
					_, errA = s.a.do(http.MethodGet, "/v1/traces/"+ra.trace, nil, "")
				}
			}
			sendB := func() {
				var endOp func() time.Duration
				opID, endOp = tr.start(id, 0, "serve.request")
				rb, errB = s.b.do(http.MethodPost, snd.Req.Path, snd.Req.Body, id)
				endOp()
			}
			// The second server of a pair finds the program's code and data
			// warm in the CPU caches, so the pair alternates which goes first.
			if ops%2 == 0 {
				sendA()
				sendB()
			} else {
				sendB()
				sendA()
			}
			if errA == nil {
				errA = checkSend(snd, ra, firstA)
			}
			if errA != nil {
				rep.fail("%v", errA)
				continue
			}
			if snd.First {
				l.misses++
				l.missMS = append(l.missMS, ms(ra.latency))
			} else {
				l.hits++
				l.hitMS = append(l.hitMS, ms(ra.latency))
			}
			if errB == nil {
				errB = checkSend(snd, rb, firstB)
			}
			if errB == nil && !bytes.Equal(ra.body, rb.body) {
				errB = fmt.Errorf("%s: the two servers answered differently", snd.Req.Path)
			}
			if errB != nil {
				rep.fail("traced %v", errB)
				continue
			}
			l.traced += rb.latency
			l.ratios = append(l.ratios, float64(rb.latency)/float64(ra.latency))
			served, err := l.serverSpans(s.b, tr, id, opID, rb.latency)
			if err != nil {
				rep.fail("%v", err)
				continue
			}
			if !snd.First {
				continue
			}
			if err := l.direct(c, tr, id, opID, snd.Req, rb.body, served, timer); err != nil {
				rep.fail("direct %v", err)
			}
		}
	}
	rep.attempted = ops
	rep.info.WindowS = time.Since(t0).Seconds()
	n := float64(ops)
	m := map[string]float64{
		"go_gc.cpu_share":      share(rt.gcCPU, rt.totalCPU),
		"go_gc.cycles_per_op":  float64(rt.gcCycles) / n,
		"trace.overhead_share": overhead(l.ratios),
	}
	// The server's expand spans measure expand here: every request expands
	// its program, hits included.
	c.expand = l.expandT
	c.metrics(m, ops, l.traced)
	m["obs.emit_share"] = share(float64(l.servedRun-l.directRun), float64(l.servedRun))
	m["service.http.self_us_p50"] = quantile(l.httpSelf, 0.5)
	m["service.expand_us_p50"] = quantile(usOf(l.spans["expand"]), 0.5)
	m["service.cache.lookup_us_p50"] = quantile(usOf(l.spans["cache-lookup"]), 0.5)
	m["service.cache.hit_ratio"] = share(float64(l.hits), float64(l.hits+l.misses))
	m["service.pool.queue_wait_ms_p50"] = quantile(msOf(l.spans["queue-wait"]), 0.5)
	m["service.pool.queue_wait_ms_p90"] = quantile(msOf(l.spans["queue-wait"]), 0.9)
	m["service.run_ms_p50"] = quantile(msOf(l.spans["run"]), 0.5)
	m["service.hit_ms_p50"] = quantile(l.hitMS, 0.5)
	m["service.hit_ms_p90"] = quantile(l.hitMS, 0.9)
	m["service.miss_ms_p50"] = quantile(l.missMS, 0.5)
	m["service.miss_ms_p90"] = quantile(l.missMS, 0.9)
	m["service.hit_samples"] = float64(len(l.hitMS))
	m["service.miss_samples"] = float64(len(l.missMS))
	m["analysis.lint_ms_p50"] = quantile(l.lintMS, 0.5)
	m["analysis.classify_ms_p50"] = quantile(l.classifyMS, 0.5)
	rep.metrics = m
	rep.info.Samples = map[string]int{"hit": len(l.hitMS), "miss": len(l.missMS)}
	line, err := c.layerSum()
	rep.info.Notes = append(rep.info.Notes,
		"measure cells (flat-only): "+line,
		"space.linked.* are 0: the measure grids are flat-only, so the Figure 8 meter never runs",
		"hit/miss latencies are server a's, the untraced server of the pair")
	if err != nil {
		rep.fail("%v", err)
	}
	rep.info.TraceFile, err = tr.write(cfg.traceDir, fmt.Sprintf("serve-seed%d", cfg.seed))
	return rep, err
}

// serverSpans fetches the spans server b recorded for trace id, adds them
// to the benchmark's trace under parent, and accumulates them by name. The
// HTTP layer's self time is the client latency minus the time the server's
// inner spans cover. It returns the request's summed run-span time.
func (l *serveLayers) serverSpans(b *spaced, tr *tracer, id string, parent int, latency time.Duration) (time.Duration, error) {
	r, err := b.do(http.MethodGet, "/v1/traces/"+id, nil, "")
	if err != nil {
		return 0, err
	}
	if r.status != http.StatusOK {
		return 0, fmt.Errorf("trace %s: status %d", id, r.status)
	}
	var resp service.TraceResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return 0, fmt.Errorf("trace %s: %w", id, err)
	}
	var inner [][2]int64
	var run time.Duration
	for _, e := range resp.Spans {
		d := time.Duration(e.DurUS) * time.Microsecond
		tr.add(id, parent, "spaced."+e.Span, time.UnixMicro(e.StartUS), d)
		l.spans[e.Span] = append(l.spans[e.Span], d)
		switch e.Span {
		case "request":
			continue
		case "expand":
			l.expandT += d
		case "run":
			run += d
		}
		inner = append(inner, [2]int64{e.StartUS, e.StartUS + e.DurUS})
	}
	self := latency - time.Duration(covered(inner))*time.Microsecond
	l.httpSelf = append(l.httpSelf, us(self))
	return run, nil
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// direct re-runs a missed request's work without the server: the run or
// grid with no event sink (for the obs share and the core layers), or the
// analysis call. It checks the served body against the direct result.
func (l *serveLayers) direct(c *layerCounts, tr *tracer, id string, parent int, req *serveReq, body []byte, servedRun, timer time.Duration) error {
	switch req.Kind {
	case "eval":
		opts := core.Options{Variant: req.Machine, Order: req.Order, MaxSteps: req.MaxSteps}
		_, end := tr.start(id, parent, "direct.core.RunProgram")
		t0 := time.Now()
		e, err := expand.ParseProgram(req.Program)
		if err != nil {
			end()
			return err
		}
		m0 := readRuntime()
		t1 := time.Now()
		res := core.NewRunner(opts).Run(e)
		t2 := time.Now()
		goBytes := readRuntime().sub(m0).allocBytes
		end()
		l.servedRun += servedRun
		l.directRun += t2.Sub(t0)
		c.addStep(req.Machine.Name, t2.Sub(t1), res, goBytes)
		c.addRunSetup(req.Machine)
		outcome := "answer"
		if res.Err != nil {
			outcome = res.Err.Error()
		}
		return sameJSON(body, service.EvalResponse{
			Machine: req.Machine.Name, Outcome: outcome, Answer: res.Answer, Steps: res.Steps,
		})
	case "measure":
		var resp service.MeasureResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		for i, v := range core.Variants {
			opts := core.Options{
				Variant: v, Measure: true, FlatOnly: true, GCEvery: 1,
				MaxSteps: req.MaxSteps, CostModel: req.Model,
			}
			_, end := tr.start(id, parent, "direct.core.RunApplication")
			t0 := time.Now()
			e, err := core.ApplicationExpr(req.Program, req.Input)
			if err != nil {
				end()
				return err
			}
			t1 := time.Now()
			res := core.NewRunner(opts).Run(e)
			t2 := time.Now()
			end()
			l.directRun += t2.Sub(t0)
			c.attributeCell(tr, id, parent, e, opts, t2.Sub(t1), timer)
			cell := resp.Cells[i]
			if res.Err != nil || cell.Machine != v.Name || cell.Flat != res.PeakFlat ||
				cell.Steps != res.Steps || cell.Answer != res.Answer {
				return fmt.Errorf("measure %s: served cell %+v, direct flat %d steps %d answer %q err %v",
					v.Name, cell, res.PeakFlat, res.Steps, res.Answer, res.Err)
			}
		}
		l.servedRun += servedRun
		return nil
	case "lint":
		_, end := tr.start(id, parent, "analysis.LintSource")
		t0 := time.Now()
		rep, err := analysis.LintSource(req.Name, req.Program)
		l.lintMS = append(l.lintMS, ms(time.Since(t0)))
		end()
		if err != nil {
			return err
		}
		return sameJSON(body, service.LintResponse{LintReport: rep, Confirmed: rep.Confirmed()})
	case "classify":
		e, err := expand.ParseProgram(req.Program)
		if err != nil {
			return err
		}
		_, end := tr.start(id, parent, "analysis.Classify")
		t0 := time.Now()
		rep := analysis.Classify(req.Name, e, req.Model.Name())
		l.classifyMS = append(l.classifyMS, ms(time.Since(t0)))
		end()
		return sameJSON(body, service.ClassifyResponse{ClassifyReport: rep})
	}
	return fmt.Errorf("unknown request kind %q", req.Kind)
}

// sameJSON checks a served body against v rendered the way spaced renders
// responses (two-space indent, trailing newline).
func sameJSON(body []byte, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	if !bytes.Equal(body, buf.Bytes()) {
		return fmt.Errorf("served body differs from the direct result:\n%s\nwant:\n%s", body, buf.Bytes())
	}
	return nil
}

func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
