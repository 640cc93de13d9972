package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"tailspace/internal/analysis"
	"tailspace/internal/core"
	"tailspace/internal/expand"
	"tailspace/internal/obs"
	"tailspace/internal/space"
	"tailspace/internal/version"
)

// Config tunes a Server. The zero value is usable: GOMAXPROCS workers, a
// 4096-entry cache, a 30-second request deadline, and the engine's default
// step bound as the cap.
type Config struct {
	// Workers bounds the number of machine runs executing at once.
	Workers int
	// QueueDepth bounds computations waiting for a worker slot beyond the
	// pool; past it the server sheds load with 503 instead of queueing
	// unboundedly. Default 64.
	QueueDepth int
	// CacheEntries bounds the result cache. Default 4096.
	CacheEntries int
	// RequestTimeout is the per-request deadline: the longest a computation
	// started for a request may run. Default 30s.
	RequestTimeout time.Duration
	// MaxSteps caps (and defaults) the per-request step bound. Default is
	// the engine's 5-million-step default.
	MaxSteps int
	// Events, when non-nil, receives one obs.EventRequest per served
	// request. The server serializes emissions, so any Sink works.
	Events obs.Sink
}

// Server is the spaced service core: handlers plus the worker pool, result
// cache, and metrics registry behind them. Create with New, expose with
// Handler, stop with Close.
type Server struct {
	cfg     Config
	start   time.Time
	sem     chan struct{}
	waiting int64 // queued-for-slot count, under waitMu
	waitMu  sync.Mutex
	cache   *resultCache
	metrics *obs.SyncMetrics
	// base is the ancestor of every computation context; Close cancels it,
	// aborting in-flight runs that survived the HTTP drain.
	base context.Context
	stop context.CancelFunc

	events   obs.Sink
	eventsMu sync.Mutex

	// spans retains the recent finished spans of every traced request,
	// exported per trace by GET /v1/traces/{id}.
	spanMu sync.Mutex
	spans  *obs.Ring

	// streams indexes live (and recently finished) run event streams by
	// trace ID, served by GET /v1/runs/{id}/events.
	streams *streamTable
}

// spanRingCapacity bounds retained spans across all requests. A request
// produces a handful of spans, so this covers thousands of recent requests.
const spanRingCapacity = 16384

// New builds a Server from cfg (see Config for defaults).
func New(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheEntries < 1 {
		cfg.CacheEntries = 4096
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxSteps < 1 {
		cfg.MaxSteps = 5_000_000
	}
	m := obs.NewSyncMetrics()
	base, stop := context.WithCancel(context.Background())
	return &Server{
		cfg:     cfg,
		start:   time.Now(),
		sem:     make(chan struct{}, cfg.Workers),
		cache:   newResultCache(cfg.CacheEntries, m),
		metrics: m,
		base:    base,
		stop:    stop,
		events:  cfg.Events,
		spans:   obs.NewRing(spanRingCapacity),
		streams: newStreamTable(finishedStreamsKept),
	}
}

// Metrics exposes the server's registry (shared with /metrics).
func (s *Server) Metrics() *obs.SyncMetrics { return s.metrics }

// Close aborts every in-flight computation. Call it after http.Server.
// Shutdown has drained (or given up on) the handlers.
func (s *Server) Close() { s.stop() }

// Handler returns the service's route table. The second logged argument is
// the route *pattern*, not the request path — it labels the per-endpoint
// latency histograms, so metric cardinality stays bounded by the route
// table even for parameterized paths.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/eval", s.logged("/v1/eval", s.handleEval))
	mux.HandleFunc("POST /v1/measure", s.logged("/v1/measure", s.handleMeasure))
	mux.HandleFunc("POST /v1/lint", s.logged("/v1/lint", s.handleLint))
	mux.HandleFunc("POST /v1/classify", s.logged("/v1/classify", s.handleClassify))
	mux.HandleFunc("GET /v1/runs/{id}/events", s.logged("/v1/runs/{id}/events", s.handleRunEvents))
	mux.HandleFunc("GET /v1/traces/{id}", s.logged("/v1/traces/{id}", s.handleTrace))
	mux.HandleFunc("GET /healthz", s.logged("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.logged("/metrics", s.handleMetrics))
	return mux
}

// maxBodyBytes bounds request bodies; programs are source text, not data.
const maxBodyBytes = 1 << 20

// reqState carries per-request bookkeeping from handler to middleware.
type reqState struct {
	status int
	cache  string // hit|miss|join (or shed|cancel|timeout on failure)
	tc     *obs.TraceContext
}

// statusWriter records the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	st *reqState
}

func (w *statusWriter) WriteHeader(code int) {
	w.st.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming handlers can push
// events as they happen rather than when the response buffer fills.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// clientRequestID extracts a usable client-chosen trace ID from the
// X-Request-Id header: up to 64 characters of [A-Za-z0-9._-]. Anything
// else (or nothing) means the middleware mints one. Honoring the client's
// ID is what lets a caller POST a run and immediately stream it — it knows
// the trace ID before the response exists.
func clientRequestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// span records a finished span of a traced request: into the server's span
// ring (exported by GET /v1/traces/{id}) and onto the request's live run
// stream, if one exists. Returns the span's duration.
func (s *Server) span(tc *obs.TraceContext, name string, start time.Time) time.Duration {
	dur := time.Since(start)
	e := tc.Span(name, start, dur)
	s.spanMu.Lock()
	s.spans.Emit(e)
	s.spanMu.Unlock()
	if rs := s.streams.get(tc.ID); rs != nil {
		rs.fan.Emit(e)
	}
	return dur
}

// logged wraps a handler with the request-scoped observability: it mints
// the trace context (honoring a client X-Request-Id, echoing the ID back as
// X-Trace-Id), records the request span and per-endpoint latency histogram,
// finishes the request's run stream, and emits the access-log event.
func (s *Server) logged(route string, h func(http.ResponseWriter, *http.Request, *reqState)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tc := obs.NewTraceContext(clientRequestID(r))
		w.Header().Set("X-Trace-Id", tc.ID)
		// begin/finish bracket the request so the stream table knows which
		// trace IDs may still lazily create a live stream.
		s.streams.begin(tc.ID)
		st := &reqState{status: http.StatusOK, tc: tc}
		h(&statusWriter{ResponseWriter: w, st: st}, r, st)
		// The request span must land before finish: a closed stream drops
		// emissions.
		dur := s.span(tc, "request", start)
		s.streams.finish(tc.ID)
		s.metrics.Inc(obs.Labeled(MetricRequests, "endpoint", route), 1)
		s.metrics.Inc(MetricStatus+strconv.Itoa(st.status/100)+"xx", 1)
		s.metrics.Observe(obs.Labeled(MetricReqLatencyUS, "endpoint", route), dur.Microseconds())
		if s.events != nil {
			s.eventsMu.Lock()
			s.events.Emit(obs.Event{
				Type:   obs.EventRequest,
				Method: r.Method,
				Path:   r.URL.Path,
				Status: st.status,
				DurUS:  dur.Microseconds(),
				Cache:  st.cache,
				Trace:  tc.ID,
			})
			s.eventsMu.Unlock()
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// decode reads a JSON request body into v.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// expandProgram parses + macro-expands source once, returning the expanded
// expression's canonical rendering — the content-addressed identity every
// cache key hashes. Expansion failures surface as 400 before any worker
// slot is consumed.
func expandProgram(src string) (string, int, error) {
	e, err := expand.ParseProgram(src)
	if err != nil {
		return "", 0, err
	}
	return e.String(), e.Size(), nil
}

// cacheKey hashes the full identity of a computation. Every field that can
// change the result is included; the program participates by expanded form,
// so surface-syntax differences that expand identically share an entry.
func cacheKey(kind, expanded, input string, parts ...string) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(expanded))
	h.Write([]byte{0})
	h.Write([]byte(input))
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// clampSteps applies the server's default and cap to a request step bound.
func (s *Server) clampSteps(n int) int {
	if n < 1 || n > s.cfg.MaxSteps {
		return s.cfg.MaxSteps
	}
	return n
}

// acquire takes a worker slot, honoring ctx and shedding load when the
// queue is past QueueDepth. Returns a release func, or an error.
var errQueueFull = errors.New("service: worker queue full")

func (s *Server) acquire(ctx context.Context) (func(), error) {
	s.waitMu.Lock()
	if s.waiting >= int64(s.cfg.QueueDepth) {
		s.waitMu.Unlock()
		return nil, errQueueFull
	}
	s.waiting++
	s.metrics.Set(MetricPoolWaiting, s.waiting)
	s.waitMu.Unlock()

	defer func() {
		s.waitMu.Lock()
		s.waiting--
		s.metrics.Set(MetricPoolWaiting, s.waiting)
		s.waitMu.Unlock()
	}()

	select {
	case s.sem <- struct{}{}:
		s.metrics.Add(MetricPoolBusy, 1)
		return func() {
			<-s.sem
			s.metrics.Add(MetricPoolBusy, -1)
		}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// runCell executes one (machine, mode) run on the worker pool under ctx,
// traced by tc: the queue wait and the run itself become spans, the run's
// engine events flow into the request's live stream stamped with the trace
// ID, and the run's step count and measured peak land in the labeled
// histograms. The finished run's registry is merged into the server's, so
// /metrics accumulates engine totals across everything ever served.
func (s *Server) runCell(ctx context.Context, tc *obs.TraceContext, program, input string, opts core.Options) (core.Result, error) {
	waitStart := time.Now()
	release, err := s.acquire(ctx)
	if err != nil {
		return core.Result{}, err
	}
	wait := s.span(tc, "queue-wait", waitStart)
	s.metrics.Observe(MetricQueueWaitUS, wait.Microseconds())
	defer release()
	opts.Cancel = ctx.Done()
	opts.TraceID = tc.ID
	if opts.Events == nil {
		// The request's live stream: created lazily by the first run of the
		// request, shared by every cell of a measure grid. A coalesced flight
		// that outlived its request gets nil (or an already-closed fan, which
		// drops emissions) — never a fresh stream nothing would finish.
		if rs := s.streams.getOrCreate(tc.ID); rs != nil {
			opts.Events = rs.fan
		}
	}
	modelName := "word"
	if opts.CostModel != nil {
		modelName = opts.CostModel.Name()
	}
	runStart := time.Now()
	var res core.Result
	if input != "" {
		res, err = core.RunApplication(program, input, opts)
	} else {
		res, err = core.RunProgram(program, opts)
	}
	s.span(tc, "run", runStart)
	if err != nil {
		return core.Result{}, err
	}
	if errors.Is(res.Err, core.ErrCancelled) {
		// Cancellation is a property of this request's lifetime, not of the
		// computation; report the context's verdict and cache nothing.
		if cerr := ctx.Err(); cerr != nil {
			return core.Result{}, cerr
		}
		return core.Result{}, core.ErrCancelled
	}
	labels := obs.Labeled("", "machine", opts.Variant.Name, "model", modelName)
	s.metrics.Observe(MetricRunSteps+labels, int64(res.Steps))
	if opts.Measure {
		s.metrics.Observe(MetricRunPeakFlat+labels, int64(res.PeakFlat))
	}
	s.metrics.Merge(res.Metrics)
	return res, nil
}

// withDeadline derives the waiter context for one request: its own
// connection lifetime plus the per-request deadline.
func (s *Server) withDeadline(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// computeErr maps a failed computation to an HTTP status.
func computeStatus(err error) int {
	switch {
	case errors.Is(err, errQueueFull):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, core.ErrCancelled):
		// The client is gone (or the server is shutting down); 499 is the
		// conventional "client closed request" status.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// errOutcome maps a failed computation to the access-log outcome word, the
// failure-side counterpart of the cache dispositions (hit|miss|join).
func errOutcome(err error) string {
	switch {
	case errors.Is(err, errQueueFull):
		return "shed"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled), errors.Is(err, core.ErrCancelled):
		return "cancel"
	default:
		return "error"
	}
}

// lookupSpan builds the resultCache.do onLookup callback: it closes a
// cache-lookup span opened now, so the span covers the lookup decision
// alone (never the computation behind it).
func (s *Server) lookupSpan(tc *obs.TraceContext) func(string) {
	start := time.Now()
	return func(string) { s.span(tc, "cache-lookup", start) }
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request, st *reqState) {
	var req EvalRequest
	if !decode(w, r, &req) {
		return
	}
	v, err := parseMachine(req.Machine)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	order, err := parseOrder(req.Order)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	expandStart := time.Now()
	expanded, _, err := expandProgram(req.Program)
	s.span(st.tc, "expand", expandStart)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Input != "" {
		if _, err := expand.ParseExpr(req.Input); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("input: %w", err))
			return
		}
	}
	maxSteps := s.clampSteps(req.MaxSteps)
	key := cacheKey("eval", expanded, req.Input, v.Name, req.Order,
		strconv.Itoa(maxSteps))

	ctx, cancel := s.withDeadline(r)
	defer cancel()
	val, disposition, err := s.cache.do(ctx, s.base, s.cfg.RequestTimeout, key, s.lookupSpan(st.tc), func(fctx context.Context) (any, error) {
		res, err := s.runCell(fctx, st.tc, req.Program, req.Input, core.Options{
			Variant: v, MaxSteps: maxSteps, Order: order,
		})
		if err != nil {
			return nil, err
		}
		outcome, msg := outcomeOf(res.Err)
		return &EvalResponse{
			Machine: v.Name, Outcome: outcome, Answer: res.Answer,
			Steps: res.Steps, Error: msg,
		}, nil
	})
	st.cache = disposition
	if err != nil {
		st.cache = errOutcome(err)
		writeError(w, computeStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, val)
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request, st *reqState) {
	var req MeasureRequest
	if !decode(w, r, &req) {
		return
	}
	machines := req.Machines
	if len(machines) == 0 {
		for _, v := range core.Variants {
			machines = append(machines, v.Name)
		}
	}
	modelNames := req.CostModels
	if len(modelNames) == 0 {
		modelNames = []string{"word"}
	}
	variants := make([]core.Variant, len(machines))
	for i, name := range machines {
		v, err := parseMachine(name)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		variants[i] = v
	}
	models := make([]space.CostModel, len(modelNames))
	for i, name := range modelNames {
		m, err := parseCostModel(name)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		models[i] = m
	}
	order, err := parseOrder(req.Order)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	expandStart := time.Now()
	expanded, size, err := expandProgram(req.Program)
	s.span(st.tc, "expand", expandStart)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Input != "" {
		if _, err := expand.ParseExpr(req.Input); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("input: %w", err))
			return
		}
	}
	maxSteps := s.clampSteps(req.MaxSteps)

	ctx, cancel := s.withDeadline(r)
	defer cancel()

	// Each cell is an independent cache unit, so overlapping grids from
	// different requests share cells; the cells of one request fan out
	// concurrently over the worker pool.
	type cellSlot struct {
		cell        MeasureCell
		disposition string
		err         error
	}
	slots := make([]cellSlot, len(variants)*len(models))
	var wg sync.WaitGroup
	for vi, v := range variants {
		for mi, model := range models {
			wg.Add(1)
			// The model's canonical Name — not the client's spelling — enters
			// the cache key, so two models are always two cache identities
			// and two spellings of one model are one.
			go func(i int, v core.Variant, model space.CostModel, modelName string) {
				defer wg.Done()
				key := cacheKey("measure", expanded, req.Input, v.Name, modelName,
					strconv.FormatBool(req.FlatOnly), req.Order, strconv.Itoa(maxSteps))
				val, disposition, err := s.cache.do(ctx, s.base, s.cfg.RequestTimeout, key, s.lookupSpan(st.tc), func(fctx context.Context) (any, error) {
					measureStart := time.Now()
					res, err := s.runCell(fctx, st.tc, req.Program, req.Input, core.Options{
						Variant: v, Measure: true, FlatOnly: req.FlatOnly,
						GCEvery: 1, MaxSteps: maxSteps, Order: order,
						CostModel: model,
					})
					s.span(st.tc, "measure", measureStart)
					if err != nil {
						return nil, err
					}
					outcome, msg := outcomeOf(res.Err)
					return &MeasureCell{
						Machine: v.Name, CostModel: modelName, Outcome: outcome,
						Flat: res.PeakFlat, Linked: res.PeakLinked,
						Heap: res.PeakHeap, ContDepth: res.PeakContDepth,
						Steps: res.Steps, Answer: res.Answer, Error: msg,
					}, nil
				})
				slots[i].disposition = disposition
				if err != nil {
					slots[i].err = err
					return
				}
				slots[i].cell = *val.(*MeasureCell)
			}(vi*len(models)+mi, v, model, model.Name())
		}
	}
	wg.Wait()

	resp := MeasureResponse{ProgramSize: size, Cells: make([]MeasureCell, len(slots))}
	st.cache = "miss"
	allHit := true
	for i, slot := range slots {
		if slot.err != nil {
			writeError(w, computeStatus(slot.err), slot.err)
			st.cache = errOutcome(slot.err)
			return
		}
		resp.Cells[i] = slot.cell
		if slot.disposition != "hit" {
			allHit = false
		}
	}
	if allHit {
		st.cache = "hit"
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request, st *reqState) {
	var req LintRequest
	if !decode(w, r, &req) {
		return
	}
	name := req.Name
	if name == "" {
		name = "program"
	}
	expandStart := time.Now()
	expanded, _, err := expandProgram(req.Program)
	s.span(st.tc, "expand", expandStart)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := cacheKey("lint", expanded, "", name)

	ctx, cancel := s.withDeadline(r)
	defer cancel()
	val, disposition, err := s.cache.do(ctx, s.base, s.cfg.RequestTimeout, key, s.lookupSpan(st.tc), func(fctx context.Context) (any, error) {
		waitStart := time.Now()
		release, err := s.acquire(fctx)
		if err != nil {
			return nil, err
		}
		wait := s.span(st.tc, "queue-wait", waitStart)
		s.metrics.Observe(MetricQueueWaitUS, wait.Microseconds())
		defer release()
		rep, err := analysis.LintSource(name, req.Program)
		if err != nil {
			return nil, err
		}
		return &LintResponse{LintReport: rep, Confirmed: rep.Confirmed()}, nil
	})
	st.cache = disposition
	if err != nil {
		st.cache = errOutcome(err)
		writeError(w, computeStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, val)
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request, st *reqState) {
	var req ClassifyRequest
	if !decode(w, r, &req) {
		return
	}
	name := req.Name
	if name == "" {
		name = "program"
	}
	model, err := parseCostModel(req.CostModel)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	expandStart := time.Now()
	program, err := expand.ParseProgram(req.Program)
	s.span(st.tc, "expand", expandStart)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The model's canonical Name enters the key (like /v1/measure cells):
	// certificates widen under logarithmic pricing, so the same program
	// under two models is two cache identities. The expanded AST is kept
	// and fed straight to the classifier — one parse+expand per miss.
	key := cacheKey("classify", program.String(), "", name, model.Name())

	ctx, cancel := s.withDeadline(r)
	defer cancel()
	val, disposition, err := s.cache.do(ctx, s.base, s.cfg.RequestTimeout, key, s.lookupSpan(st.tc), func(fctx context.Context) (any, error) {
		waitStart := time.Now()
		release, err := s.acquire(fctx)
		if err != nil {
			return nil, err
		}
		wait := s.span(st.tc, "queue-wait", waitStart)
		s.metrics.Observe(MetricQueueWaitUS, wait.Microseconds())
		defer release()
		rep := analysis.Classify(name, program, model.Name())
		return &ClassifyResponse{ClassifyReport: rep}, nil
	})
	st.cache = disposition
	if err != nil {
		st.cache = errOutcome(err)
		writeError(w, computeStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, val)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request, _ *reqState) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Version:       version.String("spaced"),
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Workers:       s.cfg.Workers,
		Cache:         s.cache.Len(),
	})
}

// handleMetrics renders the registry. The default is the flat JSON
// snapshot — the same shape Result.Metrics marshals to, so trend tooling
// reads both — with histograms projected to count/sum/p50/p90/p99 keys.
// A Prometheus scraper (Accept: text/plain or openmetrics, or an explicit
// ?format=prometheus) gets text exposition format 0.0.4 instead, with the
// full cumulative bucket layout per histogram.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, _ *reqState) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PromContentType)
		w.WriteHeader(http.StatusOK)
		s.metrics.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

// wantsPrometheus decides the /metrics representation: an explicit
// ?format= wins; otherwise the Accept header decides (Prometheus scrapers
// ask for openmetrics or text/plain; JSON remains the default so existing
// curl/spacectl consumers are unchanged).
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "openmetrics") || strings.Contains(accept, "text/plain")
}
