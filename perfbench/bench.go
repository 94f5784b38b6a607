package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"pdfshield/internal/cache"
	"pdfshield/internal/corpus"
	"pdfshield/internal/instrument"
	"pdfshield/internal/js"
	"pdfshield/internal/obs"
	"pdfshield/internal/pipeline"
	"pdfshield/internal/reader"
)

// setupSamples is how many fresh Systems the set-up measurement builds;
// setup_s is their median.
const setupSamples = 101

// runConfig is one benchmark run.
type runConfig struct {
	workload workload
	seed     int64
	passes   int
	out      io.Writer
	// spin, when positive, busy-waits after every document for this share
	// of the document's own time: an injected slowdown the power check
	// uses to show that the comparison catches a regression.
	spin float64
}

// verdict is one submission's outcome.
type verdict uint8

const (
	verdictErrored verdict = iota
	verdictBenign
	verdictMalicious
)

func (v verdict) String() string {
	return [...]string{"errored", "benign", "malicious"}[v]
}

func verdictOf(v *pipeline.Verdict, err error) verdict {
	switch {
	case err != nil || v == nil:
		return verdictErrored
	case v.Malicious:
		return verdictMalicious
	default:
		return verdictBenign
	}
}

// endToEndUnits lists the end-to-end metrics and their units.
var endToEndUnits = map[string]string{
	"docs_per_s":               "1/s",
	"js_doc_p50_ms":            "ms",
	"js_doc_p90_ms":            "ms",
	"cpu_ms_per_doc":           "ms",
	"alloc_mb_per_doc":         "MB",
	"setup_s":                  "s",
	"malicious_detected_ratio": "ratio",
	"benign_passed_ratio":      "ratio",
	"docs_ok_ratio":            "ratio",
}

// passResult is one pass over the corpus.
type passResult struct {
	lat      []time.Duration
	verdicts []verdict
	// worked marks documents whose open ran exploit shellcode in the
	// Javascript context.
	worked []bool
	wall   time.Duration
	cpu    cpuTime
	rt     runtimeCounters
	cache  cache.Stats
	// phases holds the System's own pdfshield_phase_seconds histograms.
	phases map[string]phaseTotal
}

type phaseTotal struct {
	count uint64
	sum   time.Duration
}

// pipelinePhases are the phases the pipeline records in
// pdfshield_phase_seconds.
var pipelinePhases = []string{
	obs.PhaseParse, obs.PhaseAnalyze, obs.PhaseInstrument,
	obs.PhaseTriage, obs.PhaseOpen, obs.PhaseDetect,
}

// detectorID derives the fixed install identity of a run's Systems.
func detectorID(seed int64) string {
	id, err := instrument.NewDetectorID(rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err) // math/rand never fails a read
	}
	return id
}

// newSystem builds the System one pass runs on: the front-end cache on,
// as the daemon runs it, and a private metrics registry.
func newSystem(depth pipeline.Depth, seed int64, units *js.UnitCache) (*pipeline.System, error) {
	return pipeline.NewSystem(pipeline.Options{
		Seed:       seed,
		DetectorID: detectorID(seed),
		Depth:      depth,
		Cache:      &cache.Config{},
		Obs:        obs.NewRegistry(),
		JSUnits:    units,
	})
}

// runPass submits every document once, one at a time, to a fresh System.
func runPass(docs []doc, wl workload, seed int64, spin float64) (passResult, error) {
	sys, err := newSystem(wl.depth, seed, nil)
	if err != nil {
		return passResult{}, err
	}
	defer sys.Close()
	w := sys.NewWorker()
	defer w.Close()
	res := passResult{lat: make([]time.Duration, len(docs)), verdicts: make([]verdict, len(docs)), worked: make([]bool, len(docs))}

	runtime.GC()
	cpu0, rt0 := readCPU(), readRuntime()
	start := time.Now()
	for i, d := range docs {
		t0 := time.Now()
		v, err := w.Process(context.Background(), pipeline.BatchDoc{ID: d.ID, Raw: d.Raw})
		if spin > 0 {
			busyWait(time.Duration(spin * float64(time.Since(t0))))
		}
		res.lat[i] = time.Since(t0)
		res.verdicts[i] = verdictOf(v, err)
		res.worked[i] = exploitWorked(v)
	}
	res.wall = time.Since(start)
	res.cpu = readCPU().sub(cpu0)
	res.rt = readRuntime().sub(rt0)
	res.cache, _ = sys.CacheStats()
	res.phases = map[string]phaseTotal{}
	for _, ph := range pipelinePhases {
		h := sys.Obs.Histogram(obs.PhaseSeries(ph), obs.LatencyBuckets)
		res.phases[ph] = phaseTotal{count: h.Count(), sum: time.Duration(h.SumSeconds() * 1e9)}
	}
	return res, nil
}

// exploitWorked reports whether the document's open ran exploit shellcode
// in the Javascript context, where every payload operation is one of the
// detector's features. (Outside it, only dropping, process creation and
// DLL injection are; a payload that only connects or listens is not
// convicted there, by the paper's design.)
func exploitWorked(v *pipeline.Verdict) bool {
	if v == nil || v.Open == nil {
		return false
	}
	for _, e := range v.Open.Exploits {
		if e.InJS && e.Stage == reader.StageShellcode {
			return true
		}
	}
	return false
}

func busyWait(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// measureSetup times fresh Systems from construction through the first
// verdict on a probe document, each with a cold private compiled-unit
// cache, and returns the median in seconds. The probe is a small form
// document with light scripts, the same in every run.
func measureSetup(wl workload) (float64, error) {
	probe := corpus.NewGenerator(planSeed).BenignInteractiveJS()
	var samples []float64
	for i := 0; i <= setupSamples; i++ {
		t0 := time.Now()
		sys, err := newSystem(wl.depth, 1, js.NewUnitCache(js.DefaultUnitCacheBytes))
		if err != nil {
			return 0, err
		}
		w := sys.NewWorker()
		v, err := w.Process(context.Background(), pipeline.BatchDoc{ID: "setup-probe", Raw: probe.Raw})
		d := time.Since(t0)
		w.Close()
		if cerr := sys.Close(); cerr != nil {
			return 0, fmt.Errorf("setup: close: %w", cerr)
		}
		if err != nil || v.Malicious {
			return 0, fmt.Errorf("setup: probe document: verdict %v, error %v", verdictOf(v, err), err)
		}
		if i > 0 { // the first construction also pays one-time process costs
			samples = append(samples, d.Seconds())
		}
	}
	return median(samples), nil
}

// corpusFor builds the workload's submissions for a seed.
func corpusFor(wl workload, seed int64) ([]doc, error) {
	docs, err := buildCorpus(buildPlan(), seed, wl.jsOnly)
	if err != nil {
		return nil, err
	}
	if !wl.jsOnly {
		return docs, nil
	}
	var out []doc
	for _, d := range docs {
		if d.HasJS && !d.Resub {
			out = append(out, d)
		}
	}
	return out, nil
}

// checker applies the output checks to every timed submission.
type checker struct {
	docs  []doc
	depth pipeline.Depth
	// want is each document's verdict in the warm-up pass; every later
	// pass must repeat it. worked is the warm-up's exploitWorked.
	want     []verdict
	worked   []bool
	failed   int
	problems []string
}

// check records the submissions of one pass that break a rule.
func (c *checker) check(verdicts []verdict) {
	for i, got := range verdicts {
		d := c.docs[i]
		var why string
		switch {
		case got == verdictErrored:
			why = "errored"
		case got != c.want[i]:
			why = fmt.Sprintf("verdict %v, warm-up gave %v", got, c.want[i])
		case d.Label == corpus.LabelBenign && got == verdictMalicious:
			why = "benign document flagged"
		case c.depth != pipeline.DepthStatic && d.Outcome == corpus.OutcomeExploit && c.worked[i] && got != verdictMalicious:
			why = "exploit shellcode ran in Javascript but was not convicted"
		case c.depth == pipeline.DepthDeep && d.Evasive && got != verdictMalicious:
			why = "evasive document not convicted at deep depth"
		default:
			continue
		}
		c.failed++
		if len(c.problems) < 10 {
			c.problems = append(c.problems, fmt.Sprintf("%s (%s): %s", d.ID, d.Family, why))
		}
	}
}

// prepared is the state every run starts from: the corpus, the set-up
// measurement and the warm-up pass.
type prepared struct {
	docs    []doc
	setupS  float64
	checker *checker
}

func prepare(cfg runConfig) (*prepared, error) {
	t0 := time.Now()
	docs, err := corpusFor(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "workload %s  seed %d  depth %s  passes %d\n", cfg.workload.name, cfg.seed, cfg.workload.depth, cfg.passes)
	fmt.Fprintf(cfg.out, "corpus   %d submissions  sha256 %s\n", len(docs), corpusHash(docs))
	fmt.Fprintf(cfg.out, "         %s\n", composition(docs))
	fmt.Fprintf(cfg.out, "         built in %.1fs\n", time.Since(t0).Seconds())
	t0 = time.Now()
	setupS, err := measureSetup(cfg.workload)
	fmt.Fprintf(cfg.out, "setup    measured in %.1fs\n", time.Since(t0).Seconds())
	if err != nil {
		return nil, err
	}
	warm, err := runPass(docs, cfg.workload, cfg.seed, 0)
	if err != nil {
		return nil, err
	}
	return &prepared{
		docs:    docs,
		setupS:  setupS,
		checker: &checker{docs: docs, depth: cfg.workload.depth, want: warm.verdicts, worked: warm.worked},
	}, nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(cfg runConfig) (result, error) {
	p, err := prepare(cfg)
	if err != nil {
		return result{}, err
	}
	var passes []passResult
	for i := 0; i < cfg.passes; i++ {
		pr, err := runPass(p.docs, cfg.workload, cfg.seed, cfg.spin)
		if err != nil {
			return result{}, err
		}
		p.checker.check(pr.verdicts)
		passes = append(passes, pr)
	}
	m := endToEnd(p, passes)
	m["setup_s"] = metric{p.setupS, endToEndUnits["setup_s"]}
	report(cfg.out, p.checker, m)
	return result{
		Correct:   p.checker.failed == 0,
		Attempted: len(p.docs) * len(passes),
		Failed:    p.checker.failed,
		Metrics:   m,
	}, nil
}

// endToEnd computes the end-to-end metrics over the timed passes.
func endToEnd(p *prepared, passes []passResult) map[string]metric {
	// Throughput, CPU and allocation come from the median pass, so one
	// pass slowed by the host does not move them.
	var walls, cpus, allocs []float64
	var jsLat []float64
	var mal, malHit, benign, benignFlagged, errored int
	for _, pr := range passes {
		walls = append(walls, pr.wall.Seconds())
		cpus = append(cpus, pr.cpu.total().Seconds())
		allocs = append(allocs, pr.rt.allocBytes)
		for i, v := range pr.verdicts {
			d := p.docs[i]
			switch {
			case v == verdictErrored:
				errored++
			case d.Label == corpus.LabelMalicious:
				mal++
				if v == verdictMalicious {
					malHit++
				}
			default:
				benign++
				if v == verdictMalicious {
					benignFlagged++
				}
			}
		}
	}
	// Each JS-bearing document's median across passes, then percentiles
	// across documents.
	for i, d := range p.docs {
		if !d.HasJS {
			continue
		}
		per := make([]float64, len(passes))
		for j, pr := range passes {
			per[j] = float64(pr.lat[i]) / 1e6
		}
		jsLat = append(jsLat, median(per))
	}
	attempted := len(p.docs) * len(passes)
	ratio := func(num, den int) float64 {
		if den == 0 {
			return 1
		}
		return float64(num) / float64(den)
	}
	values := map[string]float64{
		"docs_per_s":               float64(len(p.docs)) / median(walls),
		"js_doc_p50_ms":            percentile(jsLat, 50),
		"js_doc_p90_ms":            percentile(jsLat, 90),
		"cpu_ms_per_doc":           1e3 * median(cpus) / float64(len(p.docs)),
		"alloc_mb_per_doc":         median(allocs) / (1 << 20) / float64(len(p.docs)),
		"malicious_detected_ratio": ratio(malHit, mal),
		"benign_passed_ratio":      1 - ratio(benignFlagged, benign),
		"docs_ok_ratio":            1 - ratio(errored, attempted),
	}
	m := map[string]metric{}
	for name, v := range values {
		m[name] = metric{v, endToEndUnits[name]}
	}
	return m
}

// report prints the check outcome and the metrics in a stable order.
func report(w io.Writer, c *checker, m map[string]metric) {
	fmt.Fprintf(w, "checks   %d failed submissions\n", c.failed)
	for _, p := range c.problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
	for _, name := range sortedNames(m) {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

// cpuTime is process CPU split by mode.
type cpuTime struct{ user, sys time.Duration }

func readCPU() cpuTime {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTime{}
	}
	return cpuTime{user: time.Duration(ru.Utime.Nano()), sys: time.Duration(ru.Stime.Nano())}
}

func (c cpuTime) sub(o cpuTime) cpuTime { return cpuTime{c.user - o.user, c.sys - o.sys} }
func (c cpuTime) add(o cpuTime) cpuTime { return cpuTime{c.user + o.user, c.sys + o.sys} }
func (c cpuTime) total() time.Duration  { return c.user + c.sys }
func (c cpuTime) sysShare() float64     { return share(float64(c.sys), float64(c.total())) }
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeCounters are cumulative Go runtime totals.
type runtimeCounters struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeCounters {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeCounters{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

func (r runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{r.allocBytes - o.allocBytes, r.gcCPU - o.gcCPU, r.totalCPU - o.totalCPU}
}

func (r runtimeCounters) add(o runtimeCounters) runtimeCounters {
	return runtimeCounters{r.allocBytes + o.allocBytes, r.gcCPU + o.gcCPU, r.totalCPU + o.totalCPU}
}
