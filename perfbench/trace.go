package main

// The traced run. A second driver runs the pipeline's steps itself, in the
// order pipeline.Worker runs them, and records a span around every call
// into a layer: content hash, front-end cache, instrumenter (split into
// parse, analyze and rewrite by its own Result.Timing), triage, reader
// process recycle and open, detector judgement. A timing hook.Sink and a
// timing SOAP endpoint in front of the detector record the monitor round
// trips inside an open, and the compiled-unit cache's observer records
// compiles. Spans live in memory; a layer's self time is its span minus
// the part its children cover.
//
// The traced driver must not drift from the pipeline, so every traced
// pass is paired with an untraced one on the same corpus, and the two must
// give the same verdicts, the same cache outcomes and the same phase
// counts, with phase time sums that agree with the pipeline's own
// pdfshield_phase_seconds histograms.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"pdfshield/internal/cache"
	"pdfshield/internal/hook"
	"pdfshield/internal/instrument"
	"pdfshield/internal/js"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/reader"
	"pdfshield/internal/triage"
)

// Span names. Each is one layer boundary.
const (
	spanDoc         = "pipeline"
	spanHash        = "instrument.hash"
	spanCache       = "cache.lookup"
	spanInstrument  = "instrument"
	spanParse       = "pdf.parse"
	spanAnalyze     = "instrument.analyze"
	spanRewrite     = "instrument.rewrite"
	spanTriage      = "triage.eval"
	spanRecycle     = "reader.recycle"
	spanOpen        = "reader.open"
	spanHook        = "hook.rtt"
	spanSOAP        = "soapsrv.rtt"
	spanCompile     = "js.compile"
	spanJudge       = "detect.judge"
	maxSumDeviation = 0.5 // allowed traced/untraced phase-sum gap, as a share
	// minCheckedShare is the share of document time below which a phase's
	// sum is too small to compare; its count is still compared exactly.
	minCheckedShare = 0.05
)

// phaseSpans maps each pipeline phase to the traced span that covers the
// same calls.
var phaseSpans = map[string]string{
	obs.PhaseParse:      spanParse,
	obs.PhaseAnalyze:    spanAnalyze,
	obs.PhaseInstrument: spanRewrite,
	obs.PhaseTriage:     spanTriage,
	obs.PhaseOpen:       spanOpen,
	obs.PhaseDetect:     spanJudge,
}

type span struct {
	name       string
	doc        int
	parent     int // -1 for a document's root span
	start, end time.Time
}

// tracer records spans in memory. begin/end run on the driver's goroutine;
// leaf may run on any goroutine (the SOAP endpoint serves on its own).
type tracer struct {
	mu    sync.Mutex
	doc   int
	spans []span
	stack []int
}

func (t *tracer) setDoc(i int) {
	t.mu.Lock()
	t.doc = i
	t.mu.Unlock()
}

func (t *tracer) top() int {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return -1
}

func (t *tracer) begin(name string) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, doc: t.doc, parent: t.top(), start: now})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	t.stack = t.stack[:len(t.stack)-1]
}

// leaf records a finished span under the innermost open span.
func (t *tracer) leaf(name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, doc: t.doc, parent: t.top(), start: start, end: end})
}

// split lays phases end to end from the start of a finished span and
// moves the span's existing children into the phase they fall in.
func (t *tracer) split(id int, names []string, durs []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.spans[id].start
	first := len(t.spans)
	for i, name := range names {
		if durs[i] <= 0 {
			continue
		}
		t.spans = append(t.spans, span{name: name, doc: t.spans[id].doc, parent: id, start: at, end: at.Add(durs[i])})
		at = at.Add(durs[i])
	}
	for c := range t.spans[:first] {
		if t.spans[c].parent != id {
			continue
		}
		for p := first; p < len(t.spans); p++ {
			if !t.spans[c].start.Before(t.spans[p].start) && !t.spans[c].end.After(t.spans[p].end) {
				t.spans[c].parent = p
				break
			}
		}
	}
}

// layerTotals sums span time, self time and counts per span name.
type layerTotals struct {
	count int
	total time.Duration
	self  time.Duration
}

func (t *tracer) totals() map[string]*layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range t.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.name] = lt
		}
		d := s.end.Sub(s.start)
		lt.count++
		lt.total += d
		lt.self += d - covered(t.spans, s, children[i])
	}
	return out
}

// covered is the part of s's interval its children cover.
func covered(spans []span, s span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case x.a.After(cur.b):
			sum += cur.b.Sub(cur.a)
			cur = x
		case x.b.After(cur.b):
			cur.b = x.b
		}
	}
	if len(ivs) > 0 {
		sum += cur.b.Sub(cur.a)
	}
	return sum
}

// timingSink times every hooked API round trip to the detector.
type timingSink struct {
	inner hook.Sink
	t     *tracer
}

func (s *timingSink) OnAPICall(ev hook.Event) (hook.Decision, error) {
	start := time.Now()
	d, err := s.inner.OnAPICall(ev)
	s.t.leaf(spanHook, start, time.Now())
	return d, err
}

func (s *timingSink) Close() error { return s.inner.Close() }

// soapEndpoint is a timing SOAP endpoint: reader processes post their
// context notifications to it and it forwards them, byte for byte, to the
// detector's SOAP server, timing each round trip.
type soapEndpoint struct {
	target string
	t      *tracer
	client *http.Client
	ln     net.Listener
	srv    *http.Server
	done   chan struct{}
}

func startSOAPEndpoint(target string, t *tracer) (*soapEndpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("soap endpoint: %w", err)
	}
	e := &soapEndpoint{target: target, t: t, client: &http.Client{Timeout: 10 * time.Second}, ln: ln, done: make(chan struct{})}
	e.srv = &http.Server{Handler: http.HandlerFunc(e.forward), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(e.done)
		_ = e.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return e, nil
}

// url ends in /ctx, the suffix reader processes route to the detector.
func (e *soapEndpoint) url() string { return "http://" + e.ln.Addr().String() + "/ctx" }

func (e *soapEndpoint) forward(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	start := time.Now()
	resp, err := e.client.Post(e.target, r.Header.Get("Content-Type"), bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	e.t.leaf(spanSOAP, start, time.Now())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(data)
}

func (e *soapEndpoint) close() {
	_ = e.srv.Close()
	<-e.done
	e.client.CloseIdleConnections()
}

// tracedDriver runs one traced pass: pipeline.Worker's steps, one layer
// call at a time, on a fresh System's components.
type tracedDriver struct {
	t     *tracer
	sys   *pipeline.System
	cache *cache.Cache
	// triage is the tier's configuration (nil = no triage at this depth);
	// staticOnly judges every document statically.
	triage     *triage.Config
	staticOnly bool
	force      *js.ForceConfig
	soap       *soapEndpoint
	sink       *timingSink
	proc       *reader.Process

	opened, jsRuns, deepPaths, deepExhausted int
	triaged, confident                       int
	jsHeapMB                                 float64
}

func newTracedDriver(depth pipeline.Depth, seed int64) (*tracedDriver, error) {
	sys, err := newSystem(depth, seed, nil)
	if err != nil {
		return nil, err
	}
	td := &tracedDriver{t: &tracer{}, sys: sys, cache: cache.New(cache.Config{})}
	switch depth {
	case pipeline.DepthStatic:
		td.triage, td.staticOnly = &triage.Config{}, true
	case pipeline.DepthDeep:
		td.force = &js.ForceConfig{}
	}
	td.soap, err = startSOAPEndpoint(sys.Detector.SOAPURL(), td.t)
	if err != nil {
		_ = sys.Close()
		return nil, err
	}
	// NewSystem pointed the shared unit cache's observer at its registry;
	// the traced pass takes it over until the next System is built.
	js.DefaultUnits.SetObserver(func(d time.Duration, _ int64) {
		now := time.Now()
		td.t.leaf(spanCompile, now.Add(-d), now)
	})
	return td, nil
}

func (td *tracedDriver) close() {
	js.DefaultUnits.SetObserver(nil)
	if td.proc != nil {
		td.proc.Close()
	}
	if td.sink != nil {
		_ = td.sink.Close()
	}
	td.soap.close()
	_ = td.sys.Close()
}

// process runs one document and returns its verdict. A document the
// pipeline would fail gets verdictErrored, which the cross-check compares
// with the pipeline's outcome like any other verdict.
func (td *tracedDriver) process(i int, d doc) verdict {
	t := td.t
	t.setDoc(i)
	root := t.begin(spanDoc)
	defer t.end(root)

	sp := t.begin(spanHash)
	hash := instrument.ContentHash(d.Raw)
	t.end(sp)

	sp = t.begin(spanCache)
	res, err, _ := td.cache.DoContext(context.Background(), hash, func() (*instrument.Result, error) {
		in := t.begin(spanInstrument)
		r, err := td.sys.Instrumenter.InstrumentBytesWithHash(d.ID, d.Raw, hash)
		t.end(in)
		if r != nil {
			tm := r.Timing
			t.split(in, []string{spanParse, spanAnalyze, spanRewrite},
				[]time.Duration{tm.ParseDecompress, tm.FeatureExtraction, tm.Instrumentation})
		}
		return r, err
	})
	t.end(sp)
	if errors.Is(err, instrument.ErrNoJavaScript) {
		return verdictBenign
	}
	if err != nil {
		return verdictErrored
	}

	if td.triage != nil {
		sp = t.begin(spanTriage)
		dec := triage.Evaluate(*td.triage, d.Raw, res)
		t.end(sp)
		td.triaged++
		if dec.Route != triage.RouteUncertain {
			td.confident++
		}
		if td.staticOnly || dec.Route != triage.RouteUncertain {
			if dec.Route == triage.RouteMalicious {
				return verdictMalicious
			}
			return verdictBenign
		}
	}

	sp = t.begin(spanRecycle)
	err = td.recycle()
	t.end(sp)
	if err != nil {
		return verdictErrored
	}

	sp = t.begin(spanOpen)
	open, err := td.proc.Open(res.DocID, res.Output, reader.OpenOptions{ForceExec: td.force})
	if err == nil {
		td.account(open)
		for _, emb := range res.Embedded {
			if open.Crashed {
				break
			}
			eo, err := td.proc.Open(emb.DocID, emb.Output, reader.OpenOptions{ForceExec: td.force})
			if err != nil {
				break // a crashed attachment ends the session, as in the pipeline
			}
			td.account(eo)
		}
	}
	t.end(sp)
	if err != nil {
		return verdictErrored
	}
	td.opened++

	sp = t.begin(spanJudge)
	det := td.sys.Detector
	mal := det.IsMalicious(res.DocID)
	for _, emb := range res.Embedded {
		if det.IsMalicious(emb.DocID) {
			mal = true
		}
	}
	// The pipeline also looks up the document's alert and final feature
	// vector here; the traced driver makes the same calls for their cost.
	for _, a := range det.Alerts() {
		if a.DocID == res.DocID || strings.HasPrefix(a.DocID, res.DocID+"::") {
			break
		}
	}
	_, _ = det.DocStateFor(res.Key.InstrKey)
	det.ForgetDoc(res.Key.InstrKey)
	t.end(sp)
	if mal {
		return verdictMalicious
	}
	return verdictBenign
}

// recycle gives the next document a fresh reader process: the first one
// dials the hook channel and starts a process, later ones reset it.
func (td *tracedDriver) recycle() error {
	if td.proc != nil {
		td.proc.Reset()
		return nil
	}
	client, err := hook.Dial(td.sys.Detector.HookAddr())
	if err != nil {
		return err
	}
	td.sink = &timingSink{inner: client, t: td.t}
	td.proc = reader.NewProcess(reader.Config{
		ViewerVersion: 9.0,
		Sink:          td.sink,
		OS:            td.sys.OS,
		DetectorSOAP:  td.soap.url(),
	})
	return nil
}

func (td *tracedDriver) account(o *reader.OpenResult) {
	td.jsRuns += o.JSRuns
	td.deepPaths += o.DeepPaths
	if o.DeepBudgetExhausted > 0 {
		td.deepExhausted++
	}
	td.jsHeapMB += o.JSHeapMB
}

// tracedPass is one traced pass's outcome.
type tracedPass struct {
	verdicts []verdict
	wall     time.Duration
	layers   map[string]*layerTotals
	cache    cache.Stats
	units    js.UnitCacheStats
	alerts   int
	drv      *tracedDriver
}

func runTracedPass(docs []doc, wl workload, seed int64) (tracedPass, error) {
	td, err := newTracedDriver(wl.depth, seed)
	if err != nil {
		return tracedPass{}, err
	}
	defer td.close()
	out := tracedPass{verdicts: make([]verdict, len(docs)), drv: td}
	runtime.GC()
	units0 := js.DefaultUnits.Stats()
	start := time.Now()
	for i, d := range docs {
		out.verdicts[i] = td.process(i, d)
	}
	out.wall = time.Since(start)
	u := js.DefaultUnits.Stats()
	out.units = js.UnitCacheStats{Hits: u.Hits - units0.Hits, Misses: u.Misses - units0.Misses}
	out.layers = td.t.totals()
	out.cache = td.cache.Stats()
	out.alerts = len(td.sys.Detector.Alerts())
	return out, nil
}
