package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"snap1/internal/engine"
	"snap1/internal/kbgen"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestMaxQPS(t *testing.T) {
	const limit = 10 * time.Millisecond
	ok := func(rate float64) step { return step{rate: rate, p99: 2 * time.Millisecond} }
	slow := func(rate float64) step { return step{rate: rate, p99: 20 * time.Millisecond} }
	for _, c := range []struct {
		name  string
		steps []step
		want  float64
	}{
		{"all pass", []step{ok(100), ok(200), ok(400)}, 400},
		{"knee", []step{ok(100), ok(200), slow(400)}, 200},
		{"pass above the knee ignored", []step{ok(100), slow(200), ok(400)}, 100},
		{"first fails", []step{slow(100), ok(200)}, 0},
		{"failure misses", []step{ok(100), {rate: 200, p99: time.Millisecond, failed: 1}}, 100},
		{"backlog misses", []step{ok(100), {rate: 200, p99: time.Millisecond, growing: true}}, 100},
		{"at the limit passes", []step{{rate: 100, p99: limit}}, 100},
	} {
		if got := maxQPS(c.steps, limit); got != c.want {
			t.Errorf("%s: maxQPS = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLateGrowing(t *testing.T) {
	flat := make([]time.Duration, 100)
	for i := range flat {
		flat[i] = 100 * time.Microsecond
	}
	if lateGrowing(flat) {
		t.Error("steady lateness reported as a backlog")
	}
	rising := make([]time.Duration, 100)
	for i := range rising {
		rising[i] = time.Duration(i) * 100 * time.Microsecond
	}
	if !lateGrowing(rising) {
		t.Error("lateness rising by ~7.5ms not reported as a backlog")
	}
}

func smallVocab(t *testing.T, seed int64) (*kbgen.Generated, vocab) {
	t.Helper()
	g, err := kbgen.Generate(kbgen.Params{Nodes: 1200, Seed: seed, WithDomain: true})
	if err != nil {
		t.Fatal(err)
	}
	return g, newVocab(g)
}

func planTexts(p plan) []string {
	var out []string
	for _, q := range p.warm {
		out = append(out, q.text)
	}
	for _, ph := range p.phases {
		for _, q := range ph.reqs {
			out = append(out, q.class.String()+" "+q.due.String()+" "+q.text)
		}
	}
	return out
}

func TestPlanDeterministic(t *testing.T) {
	for _, w := range workloads {
		_, v1 := smallVocab(t, 7)
		_, v2 := smallVocab(t, 7)
		a := planTexts(buildPlan(w, &v1, 7, 2*time.Second))
		b := planTexts(buildPlan(w, &v2, 7, 2*time.Second))
		if strings.Join(a, "|") != strings.Join(b, "|") {
			t.Errorf("%s: the same seed gave different request streams", w.name)
		}
		_, v3 := smallVocab(t, 8)
		c := planTexts(buildPlan(w, &v3, 8, 2*time.Second))
		if strings.Join(a, "|") == strings.Join(c, "|") {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
	}
}

func TestColdTextsDistinct(t *testing.T) {
	_, v := smallVocab(t, 3)
	c := newColdTexts(&v, rand.New(rand.NewSource(3)), 1)
	seen := make(map[string]bool)
	for i := 0; i < 3*(len(v.words)+2*len(v.roots)); i++ {
		s := c.text()
		if seen[s] {
			t.Fatalf("text %d repeats: %q", i, s)
		}
		seen[s] = true
	}
}

// serve answers each request through snapd's HTTP handler over an
// in-process engine, as the open loop would record it.
func serve(t *testing.T, srv *httptest.Server, reqs []request) []outcome {
	t.Helper()
	var outs []outcome
	for i := range reqs {
		q := &reqs[i]
		now := time.Now()
		resp, err := http.Post(srv.URL+q.path(), "text/plain", strings.NewReader(q.text))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, outcome{req: q, due: now, sent: now, done: time.Now(), status: resp.StatusCode, body: body})
	}
	return outs
}

func TestOracle(t *testing.T) {
	g, v := smallVocab(t, 5)
	kbPath := filepath.Join(t.TempDir(), "kb.kb")
	if err := writeKB(kbPath, g); err != nil {
		t.Fatal(err)
	}
	kbServe, err := loadKBFile(kbPath)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(kbServe, snapdEngineOptions(true)...)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := httptest.NewServer(engine.NewServer(e))
	defer srv.Close()

	reqs := []request{
		{class: classLight, text: v.lightText(0, 1, 0)},
		{class: classLight, text: v.lightText(1, 2, 3)},
		{class: classHeavy, text: heavyText(0, 1)},
	}
	word := v.words[1]
	var target string
	for _, c := range v.classes {
		if !v.isa[[2]string{word, c}] {
			target = c
			break
		}
	}
	reqs = append(reqs,
		request{class: classWrite, text: "create node=" + word + " rel=is-a weight=0.5 dst=" + target + "\n"},
		request{class: classProbe, text: wordText(word)},
	)
	outs := serve(t, srv, reqs)
	for _, o := range outs {
		if o.status != http.StatusOK {
			t.Fatalf("%s answered %d: %s", o.req.path(), o.status, o.body)
		}
	}
	if !strings.Contains(string(outs[4].body), `"node":"`+target+`"`) {
		t.Fatalf("probe after the create does not reach %s: %s", target, outs[4].body)
	}

	check := func(outs []outcome) verdict {
		t.Helper()
		kbRef, err := loadKBFile(kbPath)
		if err != nil {
			t.Fatal(err)
		}
		o, err := newOracle(kbRef)
		if err != nil {
			t.Fatal(err)
		}
		defer o.close()
		// check drops the bodies it has read; give it copies.
		cp := append([]outcome(nil), outs...)
		for i := range cp {
			cp[i].body = bytes.Clone(cp[i].body)
		}
		return o.check(cp)
	}
	if v := check(outs); v.mismatches != 0 || v.stale != 0 || v.checked != 4 {
		t.Fatalf("faithful answers: %+v", v)
	}

	// Corrupt one collected value of the first answer.
	var resp engine.QueryResponse
	if err := json.Unmarshal(outs[0].body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Collections) == 0 || len(resp.Collections[0].Items) == 0 {
		t.Fatalf("first answer collected nothing: %s", outs[0].body)
	}
	resp.Collections[0].Items[0].Value += 1
	bad := append([]outcome(nil), outs...)
	bad[0].body, _ = json.Marshal(resp)
	if v := check(bad); v.mismatches != 1 {
		t.Errorf("corrupted value: %d mismatches, want 1", v.mismatches)
	}

	// A probe answered from before the acknowledged write: its reported
	// generation is dropped, so it reads as generation 0.
	stale := append([]outcome(nil), outs...)
	stale[4].body = bytes.Replace(outs[4].body, []byte(`"kb_generation":`), []byte(`"was_generation":`), 1)
	if v := check(stale); v.stale != 1 {
		t.Errorf("read at generation 0 after an acknowledged write: %d stale, want 1", v.stale)
	}
}
