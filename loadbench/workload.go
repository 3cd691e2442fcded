package main

import (
	"fmt"
	"math/rand"
	"time"

	"snap1/internal/kbgen"
	"snap1/internal/semnet"
)

// kbNodes is the generated knowledge base's node budget: the MUC-4-scale
// network of the paper's evaluation, before preprocessor subnodes.
const kbNodes = 16000

// Request classes. Light and heavy are reads (POST /v1/query), write is
// a link toggle (POST /v1/mutate), and probe is the read a client sends
// right after a create is acknowledged, to observe its own write.
type class uint8

const (
	classLight class = iota
	classHeavy
	classWrite
	classProbe
)

func (c class) String() string {
	return [...]string{"light", "heavy", "write", "probe"}[c]
}

// request is one scheduled HTTP request.
type request struct {
	class class
	text  string        // SNAP assembly body
	due   time.Duration // offset from the start of its phase
	probe string        // for a create: the read that observes it
}

func (r *request) path() string {
	if r.class == classWrite {
		return "/v1/mutate"
	}
	return "/v1/query"
}

// phase is one constant-rate stretch of the open-loop schedule.
type phase struct {
	name string
	rate float64 // scheduled requests per second, writes included
	reqs []request
}

// workload fixes a traffic mix: its arrival rates, its latency limit
// and the generator of its requests.
type workload struct {
	name  string
	why   string
	limit time.Duration // light-request p99 limit
	// ladder is the fixed rate ladder (requests per second); a workload
	// without a ladder runs at ladder[0] only. nominal indexes the rate
	// at which p50_ms and p99_ms are reported.
	ladder  []float64
	nominal int
	// writeRate paces /v1/mutate toggles (read-write only), per second.
	writeRate float64
	writes    bool // snapd runs with -writes
}

var workloads = []workload{
	{
		name:    "point-cold",
		why:     "Distinct light queries: compile, optimize and the lockstep machine run do all the work; result and compile caches miss. Ladder 500-3000 req/s, nominal 500; p99 limit 10 ms.",
		limit:   10 * time.Millisecond,
		ladder:  []float64{500, 1000, 2000, 3000},
		nominal: 0,
	},
	{
		name:    "zipf-repeat",
		why:     "Zipf reads over 4096 light texts, past the result (1024) and compile (128) caches: HTTP and the caches work, the machine little. Ladder 500-8000 req/s, nominal 500; p99 limit 10 ms.",
		limit:   10 * time.Millisecond,
		ladder:  []float64{500, 1000, 2000, 4000, 8000},
		nominal: 0,
	},
	{
		name:   "heavy-mix",
		why:    "Light queries plus 1 in 50 distinct whole-layer sweeps (~140 KB answers): dense propagation, big encodes, light requests queued behind heavy ones. 500 req/s; p99 limit 20 ms.",
		limit:  20 * time.Millisecond,
		ladder: []float64{500},
	},
	{
		name:      "read-write",
		why:       "Zipf reads at 500 req/s beside 40/s /v1/mutate link toggles: writer, group commit, delta replay and result-cache generation sweeps, each commit retiring cached reads. p99 limit 10 ms.",
		limit:     10 * time.Millisecond,
		ladder:    []float64{500},
		writeRate: 40,
		writes:    true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// heavyEvery is the heavy-mix share: every heavyEvery'th request is a
// whole-layer sweep, evenly spaced so each run carries the same number.
const heavyEvery = 50

// poolSize is the zipf-repeat text pool. Text k is drawn with weight
// (zipfV+k)^-zipfS. The offset zipfV keeps the head from resting on a
// handful of texts, whose answer sizes would then set a run's cost and
// make it depend on the seed; about 80% of draws still fall on the
// 1024 most popular texts, the result cache's capacity.
const (
	poolSize = 4096
	zipfS    = 1.1
	zipfV    = 16
)

// writeLag is how many creates a delete trails its create by, so a
// toggle pair's two writes are far apart on the schedule.
const writeLag = 8

// vocab holds the generated names query texts are written over.
type vocab struct {
	words   []string // w-N lexicon entries
	roots   []string // cs-N concept-sequence roots
	classes []string // concept-hierarchy nodes (write targets)
	// isa is the set of existing "word is-a class" pairs, so a toggle
	// never duplicates a generated link.
	isa map[[2]string]bool
}

func newVocab(g *kbgen.Generated) vocab {
	kb := g.KB
	names := func(ids []semnet.NodeID) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = kb.Name(id)
		}
		return out
	}
	v := vocab{
		words:   names(g.Words),
		roots:   names(g.Roots),
		classes: names(g.Classes),
		isa:     make(map[[2]string]bool),
	}
	for i, id := range g.Words {
		n, err := kb.Node(id)
		if err != nil {
			continue
		}
		for _, l := range n.Out {
			if l.Rel == g.Rel.IsA {
				v.isa[[2]string{v.words[i], kb.Name(l.To)}] = true
			}
		}
	}
	return v
}

// lightText renders light query shape s rooted at the shape's node k,
// with the search value distinguishing otherwise equal texts.
func (v *vocab) lightText(s, k, value int) string {
	switch s {
	case 0: // a word's ancestors
		return fmt.Sprintf("search-node node=%s marker=c1 value=%d\npropagate m1=c1 m2=c2 rule=path(is-a) fn=add\ncollect-node marker=c2\n",
			v.words[k%len(v.words)], value)
	case 1: // a concept sequence's elements
		return fmt.Sprintf("search-node node=%s marker=c1 value=%d\npropagate m1=c1 m2=c2 rule=step(elem) fn=add\ncollect-node marker=c2\n",
			v.roots[k%len(v.roots)], value)
	default: // a sequence's elements and their semantic constraints
		return fmt.Sprintf("search-node node=%s marker=c1 value=%d\npropagate m1=c1 m2=c2 rule=spread(elem,sem) fn=add\ncollect-node marker=c2\n",
			v.roots[k%len(v.roots)], value)
	}
}

// wordText is shape 0 on a named word: the read that sees a toggled
// is-a link of that word.
func wordText(word string) string {
	return fmt.Sprintf("search-node node=%s marker=c1 value=0\npropagate m1=c1 m2=c2 rule=path(is-a) fn=add\ncollect-node marker=c2\n", word)
}

// heavyText renders a whole-layer sweep: every word's ancestors, or
// every sequence's elements with their constraints.
func heavyText(s, value int) string {
	if s%2 == 0 {
		return fmt.Sprintf("search-color color=word marker=c1 value=%d\npropagate m1=c1 m2=c2 rule=path(is-a) fn=add\ncollect-node marker=c2\n", value)
	}
	return fmt.Sprintf("search-color color=cs-root marker=c1 value=%d\npropagate m1=c1 m2=c2 rule=spread(elem,sem) fn=add\ncollect-node marker=c2\n", value)
}

// coldTexts yields distinct light texts: a seeded permutation of every
// (shape, node) pair, cycled with a rising search value, starting at
// cycle first. Texts from different cycles never repeat.
type coldTexts struct {
	v     *vocab
	perm  []int // (shape, node) pair indices
	first int
	next  int
}

func newColdTexts(v *vocab, rng *rand.Rand, first int) *coldTexts {
	pairs := len(v.words) + 2*len(v.roots)
	return &coldTexts{v: v, perm: rng.Perm(pairs), first: first}
}

func (c *coldTexts) text() string {
	t, _ := c.textWord()
	return t
}

// textWord is text, plus the root word when the text is shape 0.
func (c *coldTexts) textWord() (text, word string) {
	i := c.next
	c.next++
	p := c.perm[i%len(c.perm)]
	value := c.first + i/len(c.perm)
	nw, nr := len(c.v.words), len(c.v.roots)
	switch {
	case p < nw:
		return c.v.lightText(0, p, value), c.v.words[p]
	case p < nw+nr:
		return c.v.lightText(1, p-nw, value), ""
	default:
		return c.v.lightText(2, p-nw-nr, value), ""
	}
}

// zipfPool is the zipf-repeat pool: poolSize distinct light texts in
// popularity order, and the words of its shape-0 entries in the same
// order (the read-write workload toggles links of the hottest ones).
type zipfPool struct {
	texts []string
	words []string
}

func newZipfPool(v *vocab, rng *rand.Rand) zipfPool {
	c := newColdTexts(v, rng, 0)
	var p zipfPool
	for len(p.texts) < poolSize {
		t, word := c.textWord()
		p.texts = append(p.texts, t)
		if word != "" {
			p.words = append(p.words, word)
		}
	}
	return p
}

// plan is a workload's generated input: warm-up requests, then the
// measured phases, all derived from one seed.
type plan struct {
	warm   []request
	phases []phase
}

// warmFor is the unmeasured warm-up before the first phase.
const warmFor = 500 * time.Millisecond

// buildPlan derives a workload's request streams from the seed. The
// measured window is split across the rate ladder by rungLength.
func buildPlan(w workload, v *vocab, seed int64, window time.Duration) plan {
	rng := rand.New(rand.NewSource(seed))
	pool := newZipfPool(v, rng)
	zipf := rand.NewZipf(rng, zipfS, zipfV, poolSize-1)
	cold := newColdTexts(v, rng, 1)
	warmCold := newColdTexts(v, rng, 1<<20)

	light := func(warm bool) request {
		switch w.name {
		case "zipf-repeat", "read-write":
			return request{class: classLight, text: pool.texts[zipf.Uint64()]}
		}
		if warm {
			return request{class: classLight, text: warmCold.text()}
		}
		return request{class: classLight, text: cold.text()}
	}

	var p plan
	nominal := w.ladder[w.nominal]
	p.warm = fixedRate(int(nominal*warmFor.Seconds()), nominal, func(int) request { return light(true) })

	for k, rate := range w.ladder {
		step := rungLength(window, len(w.ladder), k == w.nominal)
		n := int(rate * step.Seconds())
		ph := phase{name: fmt.Sprintf("%s@%g", w.name, rate), rate: rate}
		switch w.name {
		case "heavy-mix":
			ph.reqs = fixedRate(n, rate, func(i int) request {
				if i%heavyEvery == heavyEvery/2 {
					k := i / heavyEvery
					return request{class: classHeavy, text: heavyText(k, k)}
				}
				return light(false)
			})
		case "read-write":
			reads := fixedRate(n, rate, func(int) request { return light(false) })
			nw := int(w.writeRate * step.Seconds())
			writes := fixedRate(nw, w.writeRate, writeStream(v, pool.words, rng, nw))
			ph.reqs = merge(reads, writes)
			ph.rate = rate + w.writeRate
		default:
			ph.reqs = fixedRate(n, rate, func(int) request { return light(false) })
		}
		p.phases = append(p.phases, ph)
	}
	return p
}

// nominalShare is the part of the window a laddered workload spends at
// its nominal rate; the other rungs share the rest equally.
const nominalShare = 0.6

// rungLength is one ladder rung's share of the measured window.
func rungLength(window time.Duration, rungs int, nominal bool) time.Duration {
	switch {
	case rungs == 1:
		return window
	case nominal:
		return time.Duration(float64(window) * nominalShare)
	default:
		return time.Duration(float64(window) * (1 - nominalShare) / float64(rungs-1))
	}
}

// fixedRate schedules n requests at evenly spaced due times.
func fixedRate(n int, rate float64, gen func(i int) request) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = gen(i)
		out[i].due = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// merge interleaves two due-ordered schedules by due time.
func merge(a, b []request) []request {
	out := make([]request, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		if len(b) == 0 || len(a) > 0 && a[0].due <= b[0].due {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return out
}

// writeStream returns the i'th of n link toggles: creates of fresh
// "word is-a class" links on the pool's hottest words, each deleted
// writeLag creates later. Every pair is new to the knowledge base and
// used once, so no write conflicts.
func writeStream(v *vocab, hot []string, rng *rand.Rand, n int) func(int) request {
	if len(hot) > 64 {
		hot = hot[:64]
	}
	used := make(map[[2]string]bool)
	var pairs [][2]string
	var ops []request
	for len(ops) < n {
		c := len(pairs)
		var pr [2]string
		for {
			pr = [2]string{hot[c%len(hot)], v.classes[rng.Intn(len(v.classes))]}
			if !v.isa[pr] && !used[pr] {
				break
			}
		}
		used[pr] = true
		pairs = append(pairs, pr)
		ops = append(ops, request{
			class: classWrite,
			text:  fmt.Sprintf("create node=%s rel=is-a weight=0.5 dst=%s\n", pr[0], pr[1]),
			probe: wordText(pr[0]),
		})
		if c >= writeLag {
			old := pairs[c-writeLag]
			ops = append(ops, request{
				class: classWrite,
				text:  fmt.Sprintf("delete node=%s rel=is-a dst=%s\n", old[0], old[1]),
			})
		}
	}
	return func(i int) request { return ops[i] }
}
