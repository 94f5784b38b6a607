package main

// Corpus construction.
//
// Every workload draws from one corpus. Its shape is a fixed plan, built
// from planSeed and identical in every run: how many documents of each
// generator family, each slot's cost class, which slots are resubmitted
// byte for byte, and the submission order. The run's --seed draws the
// concrete documents: for each slot the seeded generator produces
// candidates of the slot's family until one falls in the slot's cost
// class. Two seeds therefore give different bytes (content, identifiers,
// payloads, obfuscation, instrumentation keys) with the same amount of
// work, which is what lets runs on different seeds be compared.
//
// A document's class (costClass) pins what makes it cost and what makes
// its verdict: the bounds of its scripts' counted loops, banded at 20
// bands per decade (about 12%) — the bulk string work of benign report
// builders and the block count of heap sprays; how many conditionals each
// script has, which sets how many paths forced execution explores; wide
// (%uXXXX) spray sleds; and, for malicious documents, the inputs of the
// verdict that the family does not fix.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pdfshield/internal/corpus"
	"pdfshield/internal/instrument"
	"pdfshield/internal/pdf"
	"pdfshield/internal/reader"
)

// planSeed fixes the corpus plan. Changing it changes the workload.
const planSeed = 20140623

// The plan's composition: a scriptless majority, benign documents with
// Javascript in the BenignWithJS mix, the Table VIII malicious mix, the
// three evasive families, and a share of byte-identical resubmissions.
const (
	planScriptless      = 160
	planBenignJS        = 60
	planMalicious       = 40
	planEvasivePerKind  = 3
	planResubmitPercent = 10
	// maxDraws bounds the candidates drawn for one family; the rarest
	// class in the plan needs about 500.
	maxDraws = 10000
)

// doc is one submission of the corpus.
type doc struct {
	ID      string
	Raw     []byte
	Family  string
	Label   corpus.Label
	Outcome corpus.Outcome
	HasJS   bool
	Evasive bool
	// Resub marks a byte-identical resubmission of an earlier document.
	Resub bool
}

// slot is one unique document of the plan.
type slot struct {
	family  string
	class   string
	size    int // scriptless documents: target bytes
	evasive bool
}

// plan is the fixed corpus shape.
type plan struct {
	slots []slot
	// order lists submissions as slot indices; a slot listed twice is
	// resubmitted.
	order []int
}

// loopBound matches the counted loops the corpus generators emit, and
// ifBranch their conditionals.
var (
	loopBound = regexp.MustCompile(`for \(var \w+ = 0; \w+ < (\d+); \w+\+\+\)`)
	ifBranch  = regexp.MustCompile(`\bif \(`)
)

// costClass returns a document's class (see the file comment). A class
// with "wide" has a script that unescapes 16-bit units (%uXXXX): strings
// built from them are wide, and a spray made of them costs several times
// a byte-string spray of the same length. A malicious document's class
// also holds its chain-ratio feature F1 and the operations of its
// shellcode payloads: when an exploit fails on the emulated viewer or runs
// outside the Javascript context, these decide the detector's verdict.
func costClass(smp corpus.Sample) string {
	malicious := smp.Label == corpus.LabelMalicious
	srcs, static, payloads, ok := scriptSources(smp.Raw, 0, malicious)
	if !ok {
		return "unparsable"
	}
	var bands, branches []int
	wide := false
	for _, src := range srcs {
		wide = wide || strings.Contains(src, "%u")
		branches = append(branches, len(ifBranch.FindAllStringIndex(src, -1)))
		for _, m := range loopBound.FindAllStringSubmatch(src, -1) {
			n, err := strconv.Atoi(m[1])
			if err != nil || n <= 0 {
				continue
			}
			bands = append(bands, int(math.Round(20*math.Log10(float64(n)))))
		}
	}
	sort.Ints(bands)
	sort.Ints(branches)
	class := fmt.Sprint(bands, " if=", branches)
	if wide {
		class += " wide"
	}
	if malicious {
		class += fmt.Sprintf(" F1=%d payload=%v", static.Vector()[0], payloads)
	}
	return class
}

// scriptSources returns the scripts of a document and of the documents
// embedded in it, the document's static features, and, when asked, the
// sorted operation kinds of the shellcode payloads in its streams.
func scriptSources(raw []byte, depth int, withPayloads bool) (srcs []string, static instrument.StaticFeatures, payloads []string, ok bool) {
	static, chains, doc, err := instrument.Analyze(raw)
	if err != nil {
		return nil, static, nil, false
	}
	for _, c := range chains.Chains {
		// Undo the split-and-concatenate obfuscation so a loop cut in two
		// still reads as one.
		srcs = append(srcs, strings.ReplaceAll(c.Source, `" + "`, ""))
	}
	kinds := map[string]bool{}
	if withPayloads {
		for _, num := range doc.Numbers() {
			obj, _ := doc.Get(num)
			stream, isStream := obj.Object.(*pdf.Stream)
			if !isStream {
				continue
			}
			if data, _, err := pdf.DecodeChain(stream); err == nil {
				ops, _ := reader.DecodePayload(string(data))
				for _, op := range ops {
					kinds[string(op.Kind)] = true
				}
			}
		}
	}
	if depth < 2 {
		for _, emb := range instrument.ExtractEmbeddedPDFs(doc) {
			if inner, _, innerPayloads, ok := scriptSources(emb.Raw, depth+1, withPayloads); ok {
				srcs = append(srcs, inner...)
				for _, k := range innerPayloads {
					kinds[k] = true
				}
			}
		}
	}
	for k := range kinds {
		payloads = append(payloads, k)
	}
	sort.Strings(payloads)
	return srcs, static, payloads, true
}

// benignJSGenerators maps the BenignWithJS families to their generators.
var benignJSGenerators = map[string]func(*corpus.Generator) corpus.Sample{
	"benign-form-js":      (*corpus.Generator).BenignFormJS,
	"benign-nav-js":       (*corpus.Generator).BenignNavJS,
	"benign-multi-js":     (*corpus.Generator).BenignMultiScript,
	"benign-soap-js":      (*corpus.Generator).BenignSOAPJS,
	"benign-encrypted-js": (*corpus.Generator).BenignEncrypted,
}

// drawFor returns the candidate generator for a slot's family.
func drawFor(s slot) (func(*corpus.Generator) corpus.Sample, error) {
	if gen, ok := benignJSGenerators[s.family]; ok {
		return gen, nil
	}
	pick := (*corpus.Generator).MaliciousFamily
	if s.evasive {
		pick = (*corpus.Generator).Evasive
	}
	if _, ok := pick(corpus.NewGenerator(0), s.family); !ok {
		return nil, fmt.Errorf("corpus: unknown family %q", s.family)
	}
	return func(g *corpus.Generator) corpus.Sample {
		smp, _ := pick(g, s.family)
		return smp
	}, nil
}

// candidate is a drawn document and its cost class.
type candidate struct {
	smp   corpus.Sample
	class string
}

// candidateStreams draws candidates from several seeded generators at
// once (generation is most of the corpus build time). next returns them
// in a fixed round-robin order, so the outcome does not depend on
// scheduling; stop ends the generators and waits for them.
func candidateStreams(seeds []int64, draw func(*corpus.Generator) corpus.Sample) (next func() candidate, stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	streams := make([]chan candidate, len(seeds))
	for k, seed := range seeds {
		// A little read-ahead keeps every generator busy while the
		// consumer takes from the others.
		ch := make(chan candidate, 4)
		streams[k] = ch
		g := corpus.NewGenerator(seed)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				smp := draw(g)
				select {
				case ch <- candidate{smp, costClass(smp)}:
				case <-done:
					return
				}
			}
		}()
	}
	turn := 0
	next = func() candidate {
		c := <-streams[turn%len(streams)]
		turn++
		return c
	}
	stop = func() {
		close(done)
		wg.Wait()
	}
	return next, stop
}

// subSeed derives an independent generator seed (splitmix64 finalizer).
func subSeed(seed int64, parts ...int) int64 {
	z := uint64(seed)
	for _, p := range parts {
		z += 0x9e3779b97f4a7c15 * uint64(p+1)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}

// buildPlan generates the fixed plan from planSeed.
func buildPlan() plan {
	g := corpus.NewGenerator(planSeed)
	rng := rand.New(rand.NewSource(planSeed))
	var p plan
	for i := 0; i < planScriptless; i++ {
		// The size spread of corpus.BenignBatch's scriptless documents.
		p.slots = append(p.slots, slot{family: "benign-text", size: 4<<10 + rng.Intn(900<<10)})
	}
	add := func(smp corpus.Sample, evasive bool) {
		p.slots = append(p.slots, slot{family: smp.Family, class: costClass(smp), evasive: evasive})
	}
	for _, smp := range g.BenignWithJS(planBenignJS) {
		add(smp, false)
	}
	for _, smp := range g.MaliciousBatch(planMalicious) {
		add(smp, false)
	}
	for _, kind := range corpus.EvasiveKinds() {
		for i := 0; i < planEvasivePerKind; i++ {
			smp, _ := g.Evasive(kind)
			add(smp, true)
		}
	}
	order := make([]int, len(p.slots))
	for i := range order {
		order[i] = i
	}
	resub := rng.Perm(len(p.slots))[:len(p.slots)*planResubmitPercent/100]
	order = append(order, resub...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	p.order = order
	return p
}

// buildCorpus fills the plan from the run seed and returns the
// submissions in order. With jsOnly the scriptless slots are left empty
// (their generator stream is separate, so the other slots are the same).
func buildCorpus(p plan, seed int64, jsOnly bool) ([]doc, error) {
	unique := make([]corpus.Sample, len(p.slots))
	byFamily := map[string][]int{}
	var families []string
	for i, s := range p.slots {
		if _, ok := byFamily[s.family]; !ok && s.family != "benign-text" {
			families = append(families, s.family)
		}
		byFamily[s.family] = append(byFamily[s.family], i)
	}
	sort.Strings(families)
	// Scriptless documents take their size from the plan; two generators
	// build alternate slots at once.
	var text []int
	if !jsOnly {
		text = byFamily["benign-text"]
	}
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		g := corpus.NewGenerator(subSeed(seed, 0, k))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := k; j < len(text); j += 2 {
				unique[text[j]] = g.BenignText(p.slots[text[j]].size)
			}
		}()
	}
	wg.Wait()
	for fi, fam := range families {
		if err := fillFamily(p, byFamily[fam], unique, []int64{subSeed(seed, fi+1, 0), subSeed(seed, fi+1, 1)}); err != nil {
			return nil, err
		}
	}

	seen := make([]bool, len(p.slots))
	docs := make([]doc, 0, len(p.order))
	for _, i := range p.order {
		smp := unique[i]
		d := doc{
			// Generators number their documents independently, so the
			// slot index keeps IDs unique.
			ID:      fmt.Sprintf("%03d-%s", i, smp.ID),
			Raw:     smp.Raw,
			Family:  smp.Family,
			Label:   smp.Label,
			Outcome: smp.Outcome,
			HasJS:   smp.HasJS,
			Evasive: p.slots[i].evasive,
			Resub:   seen[i],
		}
		if d.Resub {
			d.ID += "-resub"
		}
		seen[i] = true
		docs = append(docs, d)
	}
	return docs, nil
}

// fillFamily fills the given slots of one family with candidates of the
// slots' cost classes.
func fillFamily(p plan, idx []int, unique []corpus.Sample, seeds []int64) error {
	fam := p.slots[idx[0]].family
	draw, err := drawFor(p.slots[idx[0]])
	if err != nil {
		return err
	}
	want := map[string][]int{}
	for _, i := range idx {
		want[p.slots[i].class] = append(want[p.slots[i].class], i)
	}
	next, stop := candidateStreams(seeds, draw)
	defer stop()
	left := len(idx)
	for n := 0; left > 0; n++ {
		if n == maxDraws {
			return fmt.Errorf("corpus: %s: %d of %d slots unfilled after %d draws", fam, left, len(idx), maxDraws)
		}
		c := next()
		if slots := want[c.class]; len(slots) > 0 {
			unique[slots[0]] = c.smp
			want[c.class] = slots[1:]
			left--
		}
	}
	return nil
}

// corpusHash identifies a generated corpus: SHA-256 over every submission's
// ID and bytes, in order.
func corpusHash(docs []doc) string {
	h := sha256.New()
	for _, d := range docs {
		h.Write([]byte(d.ID))
		h.Write([]byte{0})
		h.Write(d.Raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// composition summarizes a corpus as "family=count" pairs.
func composition(docs []doc) string {
	counts := map[string]int{}
	resub := 0
	for _, d := range docs {
		counts[d.Family]++
		if d.Resub {
			resub++
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys)+1)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	parts = append(parts, fmt.Sprintf("resubmissions=%d", resub))
	return strings.Join(parts, " ")
}
