// Command perfbench is the repository's benchmark: a closed-loop,
// single-client, fixed-work run of the detection pipeline over a seeded
// corpus, in one of three workloads (scan depths). It prints a
// human-readable report followed, on its last line, by one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (throughput, latency,
// CPU, memory, set-up time, detection ratios); with --trace 1 a separate
// traced driver times every layer from outside and the metrics are the
// per-layer ones. Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload mixed-standard --seed 1 --seconds 15 --trace 0
//
// --workload all runs every workload in turn, each in its own process, and
// prints every metric as <workload>/<metric>.
//
// NOTES.md explains the design, the prediction table and the pitfalls met
// while sizing it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"pdfshield/internal/pipeline"
)

// workload is one way of running the corpus.
type workload struct {
	name  string
	depth pipeline.Depth
	// jsOnly restricts the corpus to its unique Javascript-bearing
	// documents.
	jsOnly bool
	// passSeconds is the run time one timed pass is charged for. It fixes
	// the number of passes a run of --seconds makes, so the work done
	// never depends on the host's speed. On a 2-vCPU x86-64 host a pass
	// takes about 7 s, 0.1 s and 20 s; static-triage is charged more to
	// keep its runs short.
	passSeconds float64
}

var workloads = []workload{
	{name: "mixed-standard", depth: pipeline.DepthStandard, passSeconds: 7},
	{name: "static-triage", depth: pipeline.DepthStatic, passSeconds: 0.375},
	{name: "deep-forced", depth: pipeline.DepthDeep, jsOnly: true, passSeconds: 20},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// passes is the number of timed passes a run of the given length makes.
func (w workload) passes(seconds int) int {
	return max(1, int(float64(seconds)/w.passSeconds+0.5))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: mixed-standard, static-triage, deep-forced or all")
	seed := flag.Int64("seed", 1, "corpus seed")
	seconds := flag.Int("seconds", 20, "nominal run length; fixes the number of passes")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spin := flag.Float64("spin", 0, "busy-wait after each document for this share of its time (an injected slowdown; the power check uses it)")
	flag.Parse()

	wl, ok := findWorkload(*name)
	if *name == "all" {
		ok = true
	}
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	cfg := runConfig{workload: wl, seed: *seed, passes: wl.passes(*seconds), out: os.Stdout, spin: *spin}
	var res result
	var err error
	switch {
	case *name == "all":
		res, err = runAll(os.Args[1:])
	case *trace == 1:
		res, err = runTraced(cfg)
	default:
		res, err = runUntraced(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in a process of its own (peak RSS is per
// process), passing the other flags on, and merges the results.
func runAll(args []string) (result, error) {
	var rest []string
	for i := 0; i < len(args); i++ {
		switch a := args[i]; {
		case a == "--workload" || a == "-workload":
			i++ // skip the value too
		case strings.HasPrefix(a, "--workload=") || strings.HasPrefix(a, "-workload="):
		default:
			rest = append(rest, a)
		}
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		cmd := exec.Command(os.Args[0], append([]string{"--workload", w.name}, rest...)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return result{}, fmt.Errorf("%s: result line: %w", w.name, err)
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	return all, nil
}
