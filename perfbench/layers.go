package main

import (
	"fmt"
	"sort"
	"time"
)

// maxTraceOverhead is the tracing overhead the traced run states: the
// traced document time (the sum of every layer's self time) may exceed
// the untraced document time by at most this share.
const maxTraceOverhead = 0.25

// perLayerUnits lists the per-layer metrics and their units. Time metrics
// ending in _ms are a layer's self time per submitted document, except
// hook.rtt_ms and soapsrv.rtt_ms, which are per round trip.
var perLayerUnits = map[string]string{
	"pdf.parse_ms":             "ms",
	"instrument.hash_ms":       "ms",
	"instrument.analyze_ms":    "ms",
	"instrument.rewrite_ms":    "ms",
	"instrument.other_ms":      "ms",
	"cache.lookup_ms":          "ms",
	"cache.hit_ratio":          "ratio",
	"triage.eval_ms":           "ms",
	"triage.confident_ratio":   "ratio",
	"reader.recycle_ms":        "ms",
	"reader.open_ms":           "ms",
	"reader.js_heap_mb":        "MB",
	"js.compile_ms":            "ms",
	"js.units_hit_ratio":       "ratio",
	"js.runs_per_doc":          "count",
	"js.deep_paths_per_doc":    "count",
	"js.deep_exhausted_ratio":  "ratio",
	"hook.events_per_doc":      "count",
	"hook.rtt_ms":              "ms",
	"soapsrv.msgs_per_doc":     "count",
	"soapsrv.rtt_ms":           "ms",
	"detect.judge_ms":          "ms",
	"detect.alerts":            "count",
	"pipeline.self_ms":         "ms",
	"runtime.alloc_mb_per_doc": "MB",
	"runtime.peak_rss_mb":      "MB",
	"runtime.gc_cpu_share":     "ratio",
	"runtime.sys_cpu_share":    "ratio",
	"obs.trace_overhead_ratio": "ratio",
}

// selfMetrics maps span names to the per-layer self-time metric.
var selfMetrics = map[string]string{
	spanParse:      "pdf.parse_ms",
	spanHash:       "instrument.hash_ms",
	spanAnalyze:    "instrument.analyze_ms",
	spanRewrite:    "instrument.rewrite_ms",
	spanInstrument: "instrument.other_ms",
	spanCache:      "cache.lookup_ms",
	spanTriage:     "triage.eval_ms",
	spanRecycle:    "reader.recycle_ms",
	spanOpen:       "reader.open_ms",
	spanCompile:    "js.compile_ms",
	spanJudge:      "detect.judge_ms",
	spanDoc:        "pipeline.self_ms",
}

// runTraced measures the per-layer metrics. Each round is an untraced pass
// (the pipeline itself, for the cross-checks and the runtime counters)
// followed by a traced pass over the same corpus.
func runTraced(cfg runConfig) (result, error) {
	p, err := prepare(cfg)
	if err != nil {
		return result{}, err
	}
	rounds := (cfg.passes + 1) / 2
	var plain []passResult
	var traced []tracedPass
	var crossFailed int
	var problems []string
	for r := 0; r < rounds; r++ {
		pr, err := runPass(p.docs, cfg.workload, cfg.seed, 0)
		if err != nil {
			return result{}, err
		}
		p.checker.check(pr.verdicts)
		tp, err := runTracedPass(p.docs, cfg.workload, cfg.seed)
		if err != nil {
			return result{}, err
		}
		n, why := crossCheck(p.docs, pr, tp)
		crossFailed += n
		problems = append(problems, why...)
		plain = append(plain, pr)
		traced = append(traced, tp)
	}
	n, why := crossCheckSums(plain, traced)
	crossFailed += n
	problems = append(problems, why...)
	m, table := perLayer(p.docs, plain, traced)
	if over := m["obs.trace_overhead_ratio"].Value - 1; over > maxTraceOverhead {
		crossFailed++
		problems = append(problems, fmt.Sprintf("tracing overhead %.1f%% exceeds the stated %.0f%%", 100*over, 100*maxTraceOverhead))
	}
	fmt.Fprintln(cfg.out, table)
	for _, why := range problems {
		fmt.Fprintf(cfg.out, "  CROSS-CHECK FAIL %s\n", why)
	}
	report(cfg.out, p.checker, m)
	return result{
		Correct:   p.checker.failed == 0 && crossFailed == 0,
		Attempted: len(p.docs) * rounds,
		Failed:    p.checker.failed + crossFailed,
		Metrics:   m,
	}, nil
}

// crossCheck compares a traced pass with the untraced pass before it:
// verdicts and cache outcomes must be equal, and the traced phase span
// counts must equal the pipeline's histogram counts.
func crossCheck(docs []doc, pr passResult, tp tracedPass) (int, []string) {
	failed := 0
	var why []string
	for i := range docs {
		if pr.verdicts[i] != tp.verdicts[i] {
			failed++
			why = append(why, fmt.Sprintf("%s: pipeline %v, traced driver %v", docs[i].ID, pr.verdicts[i], tp.verdicts[i]))
		}
	}
	if pr.cache.Hits != tp.cache.Hits || pr.cache.Misses != tp.cache.Misses {
		failed++
		why = append(why, fmt.Sprintf("cache: pipeline %d hits/%d misses, traced %d/%d", pr.cache.Hits, pr.cache.Misses, tp.cache.Hits, tp.cache.Misses))
	}
	for _, ph := range pipelinePhases {
		got := 0
		if lt := tp.layers[phaseSpans[ph]]; lt != nil {
			got = lt.count
		}
		if want := pr.phases[ph].count; uint64(got) != want {
			failed++
			why = append(why, fmt.Sprintf("phase %s: pipeline observed %d, traced %d", ph, want, got))
		}
	}
	return failed, why
}

// crossCheckSums compares the phase time sums of all traced passes with
// the pipeline's histogram sums over all untraced passes: they must agree
// within maxSumDeviation wherever a phase holds enough of the document
// time to compare.
func crossCheckSums(plain []passResult, traced []tracedPass) (int, []string) {
	failed := 0
	var why []string
	var docTotal time.Duration
	want := map[string]time.Duration{}
	got := map[string]time.Duration{}
	for _, pr := range plain {
		for _, l := range pr.lat {
			docTotal += l
		}
		for _, ph := range pipelinePhases {
			want[ph] += pr.phases[ph].sum
		}
	}
	for _, tp := range traced {
		for _, ph := range pipelinePhases {
			if lt := tp.layers[phaseSpans[ph]]; lt != nil {
				got[ph] += lt.total
			}
		}
	}
	for _, ph := range pipelinePhases {
		w, g := want[ph], got[ph]
		if float64(w) < minCheckedShare*float64(docTotal) {
			continue
		}
		if dev := float64(g-w) / float64(w); dev > maxSumDeviation || dev < -maxSumDeviation/(1+maxSumDeviation) {
			failed++
			why = append(why, fmt.Sprintf("phase %s: pipeline %v, traced %v", ph, w, g))
		}
	}
	return failed, why
}

// perLayer computes the per-layer metrics and the printed layer table.
func perLayer(docs []doc, plain []passResult, traced []tracedPass) (map[string]metric, string) {
	sum := map[string]*layerTotals{}
	var wall, plainWall time.Duration
	var opened, jsRuns, deepPaths, deepExhausted, triaged, confident, alerts int
	var jsHeap float64
	var hits, lookups, unitHits, unitLookups uint64
	for _, tp := range traced {
		for name, lt := range tp.layers {
			acc := sum[name]
			if acc == nil {
				acc = &layerTotals{}
				sum[name] = acc
			}
			acc.count += lt.count
			acc.total += lt.total
			acc.self += lt.self
		}
		wall += tp.wall
		d := tp.drv
		opened += d.opened
		jsRuns += d.jsRuns
		deepPaths += d.deepPaths
		deepExhausted += d.deepExhausted
		triaged += d.triaged
		confident += d.confident
		jsHeap += d.jsHeapMB
		alerts += tp.alerts
		hits += tp.cache.Hits
		lookups += tp.cache.Hits + tp.cache.Misses + tp.cache.Shared
		unitHits += tp.units.Hits
		unitLookups += tp.units.Hits + tp.units.Misses
	}
	var cpu cpuTime
	var rt runtimeCounters
	var plainDocTime time.Duration
	for _, pr := range plain {
		plainWall += pr.wall
		cpu = cpu.add(pr.cpu)
		rt = rt.add(pr.rt)
		for _, l := range pr.lat {
			plainDocTime += l
		}
	}
	n := float64(len(docs) * len(traced))
	perDoc := func(d time.Duration) float64 { return float64(d) / 1e6 / n }
	per := func(num, den float64) float64 { return share(num, den) }
	get := func(name string) layerTotals {
		if lt := sum[name]; lt != nil {
			return *lt
		}
		return layerTotals{}
	}

	v := map[string]float64{}
	for span, name := range selfMetrics {
		v[name] = perDoc(get(span).self)
	}
	hook, soap := get(spanHook), get(spanSOAP)
	v["cache.hit_ratio"] = per(float64(hits), float64(lookups))
	v["triage.confident_ratio"] = per(float64(confident), float64(triaged))
	v["reader.js_heap_mb"] = per(jsHeap, float64(opened))
	v["js.units_hit_ratio"] = per(float64(unitHits), float64(unitLookups))
	v["js.runs_per_doc"] = per(float64(jsRuns), float64(opened))
	v["js.deep_paths_per_doc"] = per(float64(deepPaths), float64(opened))
	v["js.deep_exhausted_ratio"] = per(float64(deepExhausted), float64(opened))
	v["hook.events_per_doc"] = per(float64(hook.count), float64(opened))
	v["hook.rtt_ms"] = per(float64(hook.total)/1e6, float64(hook.count))
	v["soapsrv.msgs_per_doc"] = per(float64(soap.count), float64(opened))
	v["soapsrv.rtt_ms"] = per(float64(soap.total)/1e6, float64(soap.count))
	v["detect.alerts"] = per(float64(alerts), float64(len(traced)))
	v["runtime.alloc_mb_per_doc"] = rt.allocBytes / (1 << 20) / float64(len(docs)*len(plain))
	v["runtime.gc_cpu_share"] = per(rt.gcCPU, rt.totalCPU)
	v["runtime.sys_cpu_share"] = cpu.sysShare()
	v["runtime.peak_rss_mb"] = peakRSSMB()
	// Traced over untraced wall time, from the same number of passes: the
	// untraced throughput over the traced one.
	v["obs.trace_overhead_ratio"] = per(float64(wall), float64(plainWall))
	m := map[string]metric{}
	for name, x := range v {
		m[name] = metric{x, perLayerUnits[name]}
	}

	return m, layerTable(sum, n, perDoc(get(spanDoc).total), float64(plainDocTime)/1e6/float64(len(docs)*len(plain)))
}

// layerTable renders self time per document and share of document time
// for every span name, with the traced and untraced document totals.
func layerTable(sum map[string]*layerTotals, docs float64, tracedMS, plainMS float64) string {
	names := make([]string, 0, len(sum))
	var selfMS float64
	for name, lt := range sum {
		names = append(names, name)
		selfMS += float64(lt.self) / 1e6 / docs
	}
	sort.Slice(names, func(i, j int) bool { return sum[names[i]].self > sum[names[j]].self })
	var b []byte
	b = fmt.Appendf(b, "layer                     calls/doc   self ms/doc   share\n")
	for _, name := range names {
		lt := sum[name]
		ms := float64(lt.self) / 1e6 / docs
		b = fmt.Appendf(b, "%-24s %10.2f %13.4f %6.1f%%\n", name, float64(lt.count)/docs, ms, 100*share(ms, selfMS))
	}
	b = fmt.Appendf(b, "sum of self times %.4f ms/doc; traced document %.4f ms/doc; untraced document %.4f ms/doc (%+.1f%%)",
		selfMS, tracedMS, plainMS, 100*(selfMS/plainMS-1))
	return string(b)
}

// sortedNames returns a metric map's names in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
