package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pdfshield/internal/corpus"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesMetrics pins BENCHMARK.json to what the benchmark emits.
func TestSpecMatchesMetrics(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %q in BENCHMARK.json is not implemented", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	e2e := map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layers := map[string]string{}
	for _, m := range s.PerLayer {
		layers[m.Name] = m.Unit
	}
	for what, pair := range map[string][2]map[string]string{
		"end_to_end": {e2e, endToEndUnits},
		"per_layer":  {layers, perLayerUnits},
	} {
		listed, emitted := pair[0], pair[1]
		for name, unit := range emitted {
			if listed[name] != unit {
				t.Errorf("%s: %s emitted in %q, listed as %q", what, name, unit, listed[name])
			}
		}
		if len(listed) != len(emitted) {
			t.Errorf("%s: %d listed, %d emitted", what, len(listed), len(emitted))
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v", m)
	}
}

// TestCorpusIsSeededAndPlanned checks that a seed fixes the corpus bytes
// and that two seeds give different bytes in the same classes.
func TestCorpusIsSeededAndPlanned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three corpora")
	}
	p := buildPlan()
	a, err := buildCorpus(p, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := buildCorpus(p, 1, false)
	other, _ := buildCorpus(p, 2, false)
	if corpusHash(a) != corpusHash(again) {
		t.Error("the same seed built two different corpora")
	}
	if corpusHash(a) == corpusHash(other) {
		t.Error("two seeds built the same corpus")
	}
	for i := range a {
		slot := p.slots[p.order[i]]
		if a[i].Family != slot.family || other[i].Family != slot.family {
			t.Fatalf("submission %d: families %s, %s; plan says %s", i, a[i].Family, other[i].Family, slot.family)
		}
		if slot.family == "benign-text" {
			continue
		}
		if ca, co := costClass(sample(a[i])), costClass(sample(other[i])); ca != slot.class || co != slot.class {
			t.Fatalf("submission %d: classes %q, %q; plan says %q", i, ca, co, slot.class)
		}
	}
}

// runBench runs the benchmark binary once, in a process of its own, and
// returns its metrics.
func runBench(t *testing.T, bin string, args ...string) map[string]float64 {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = ".."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%v: %d failed checks", args, res.Failed)
	}
	vals := map[string]float64{}
	for name, m := range res.Metrics {
		vals[name] = m.Value
	}
	return vals
}

// regressions applies the acceptance rule: a metric regresses when head's
// median is worse than base's by more than the metric's bound.
func regressions(s spec, base, head []map[string]float64) []string {
	var out []string
	for _, m := range s.EndToEnd {
		var b, h []float64
		for _, r := range base {
			b = append(b, r[m.Name])
		}
		for _, r := range head {
			h = append(h, r[m.Name])
		}
		if w := worseBy(b, h, m.Better == "higher"); w > m.Bound {
			out = append(out, fmt.Sprintf("%s worse by %.1f%% (bound %.0f%%)", m.Name, 100*w, 100*m.Bound))
		}
	}
	sort.Strings(out)
	return out
}

// TestPowerCheck: two sets of runs of unchanged code pass the comparison,
// and a set with a slowdown injected around every document call fails
// it. Every run is a separate process of the benchmark binary, interleaved
// so that host drift hits every set alike. The bounds are sized to the
// host drift seen on a shared 2-vCPU host (NOTES.md), so the slowdown
// that must be caught is 50%.
func TestPowerCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the static-triage workload fifteen times")
	}
	s := loadSpec(t)
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	var base, same, slow []map[string]float64
	for i := 0; i < 5; i++ {
		run := func(seed int, spin string) map[string]float64 {
			return runBench(t, bin, "--workload", "static-triage", "--seed", fmt.Sprint(seed), "--seconds", "3", "--trace", "0", "--spin", spin)
		}
		base = append(base, run(101+i, "0"))
		same = append(same, run(111+i, "0"))
		slow = append(slow, run(111+i, "0.5"))
	}
	if r := regressions(s, base, same); len(r) > 0 {
		t.Errorf("unchanged code failed the comparison: %v", r)
	}
	r := regressions(s, base, slow)
	if len(r) == 0 {
		t.Error("a 50% injected slowdown passed the comparison")
	}
	t.Logf("50%% injected slowdown flagged: %v", r)
}

func sample(d doc) corpus.Sample { return corpus.Sample{Raw: d.Raw, Label: d.Label} }
