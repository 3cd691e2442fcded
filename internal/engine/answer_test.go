package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"snap1/internal/isa"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// encodeAnswer is the whole body writeAnswer writes for one answer, or
// the error it answers instead.
func encodeAnswer(kb *semnet.KB, prog *isa.Program, res *machine.Result, wall time.Duration) ([]byte, error) {
	if err := checkFinite(res); err != nil {
		return nil, err
	}
	return append(appendAnswer(make([]byte, 0, answerSize(res)), kb, prog, res, wall), '\n'), nil
}

// answerCase is one served answer: its name, program and result.
type answerCase struct {
	name string
	prog *isa.Program
	res  *machine.Result
}

// answerFixture serves the load benchmark's query shapes on a
// domain-enabled generated KB of the given size: a light query (one
// word's ancestors), the word sweep (every word's ancestors) and the
// cs-root sweep (every concept sequence's elements and their
// constraints), plus a relation and a color collection.
func answerFixture(tb testing.TB, nodes int) (*Engine, []answerCase) {
	tb.Helper()
	g, err := kbgen.Generate(kbgen.Params{Nodes: nodes, Seed: 1, WithDomain: true})
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(g.KB, WithReplicas(1))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(e.Close)
	word := g.KB.Name(g.Words[len(g.Words)/2])
	srcs := []struct{ name, src string }{
		{"light", "search-node node=" + word + " marker=c1 value=3\npropagate m1=c1 m2=c2 rule=path(is-a) fn=add\ncollect-node marker=c2\n"},
		{"word-sweep", "search-color color=word marker=c1 value=0\npropagate m1=c1 m2=c2 rule=path(is-a) fn=add\ncollect-node marker=c2\n"},
		{"cs-root-sweep", "search-color color=cs-root marker=c1 value=0\npropagate m1=c1 m2=c2 rule=spread(elem,sem) fn=add\ncollect-node marker=c2\n"},
		{"relations", "search-color color=cs-root marker=c1 value=0.25\ncollect-relation marker=c1 rel=elem\ncollect-color marker=c1\n"},
	}
	cases := make([]answerCase, len(srcs))
	for i, s := range srcs {
		prog, err := e.Compile(s.src)
		if err != nil {
			tb.Fatalf("%s: %v", s.name, err)
		}
		res, err := e.Submit(context.Background(), prog)
		if err != nil {
			tb.Fatalf("%s: %v", s.name, err)
		}
		cases[i] = answerCase{s.name, prog, res}
	}
	return e, cases
}

// TestAnswerMatchesReference pins the encoder to the reflective path
// on whole served answers, solo and as batch elements.
func TestAnswerMatchesReference(t *testing.T) {
	e, cases := answerFixture(t, 4000)
	wall := 1234567 * time.Nanosecond
	var progs []*isa.Program
	var results []*machine.Result
	var errs []error
	for _, c := range cases {
		if len(c.res.Collections) == 0 || len(c.res.Collections[0].Items) == 0 {
			t.Fatalf("%s: empty answer; the fixture should collect rows", c.name)
		}
		got, err := encodeAnswer(e.kb, c.prog, c.res, wall)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := referenceAnswer(e.kb, c.prog, c.res, wall)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: encoder differs from reference at byte %d", c.name, firstDiff(got, want))
		}
		progs, results, errs = append(progs, c.prog), append(results, c.res), append(errs, nil)
	}
	progs, results, errs = append(progs, nil), append(results, nil), append(errs, ErrOverloaded)
	got := appendBatchAnswer(nil, e.kb, progs, results, errs, wall)
	want, err := referenceBatchAnswer(e.kb, progs, results, errs, wall)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch: encoder differs from reference at byte %d", firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestAnswerEncodingAllocs fences per-row allocation out of the answer
// path: encoding an answer costs a small constant number of
// allocations, however many rows it carries.
func TestAnswerEncodingAllocs(t *testing.T) {
	e, cases := answerFixture(t, 4000)
	for _, c := range cases {
		rows := 0
		for _, coll := range c.res.Collections {
			rows += len(coll.Items)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := encodeAnswer(e.kb, c.prog, c.res, time.Millisecond); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d rows, %.0f allocs", c.name, rows, allocs)
		if allocs > 6 {
			t.Errorf("%s: %d rows cost %.0f allocs per answer, limit 6", c.name, rows, allocs)
		}
	}
}

var answerSink []byte

// BenchmarkAnswerEncoding times encoding one answer, from the run's
// result to the finished body, on the load benchmark's 16K-node KB:
// the reflective reference path against the answer encoder.
func BenchmarkAnswerEncoding(b *testing.B) {
	e, cases := answerFixture(b, 16000)
	for _, c := range cases[:3] {
		for _, path := range []struct {
			name   string
			encode func(*semnet.KB, *isa.Program, *machine.Result, time.Duration) ([]byte, error)
		}{{"reference", referenceAnswer}, {"encoder", encodeAnswer}} {
			b.Run(c.name+"/"+path.name, func(b *testing.B) {
				body, err := path.encode(e.kb, c.prog, c.res, time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if answerSink, err = path.encode(e.kb, c.prog, c.res, time.Millisecond); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// edgeFloats are the float32 values the fuzz tape can pick by index:
// both sides of encoding/json's 'f'/'e' cutoffs, signed zeros,
// subnormals, the largest float32 and the non-finite values.
var edgeFloats = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 0.5, 3.25, 123456.79, 16777216,
	1e-7, -1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, -1e21, 1.5e38,
	math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff),
	math.Float32frombits(0x00800000), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// answerTape reads a fuzz input as a stream of choices; reads past its
// end yield zeros.
type answerTape struct{ b []byte }

func (t *answerTape) byte() byte {
	if len(t.b) == 0 {
		return 0
	}
	c := t.b[0]
	t.b = t.b[1:]
	return c
}

func (t *answerTape) u32() uint32 {
	return uint32(t.byte()) | uint32(t.byte())<<8 | uint32(t.byte())<<16 | uint32(t.byte())<<24
}

// str reads a length byte (mod 32) and that many raw bytes.
func (t *answerTape) str() string {
	n := min(int(t.byte()%32), len(t.b))
	s := string(t.b[:n])
	t.b = t.b[n:]
	return s
}

// float picks an edge value by index, or reads raw float32 bits.
func (t *answerTape) float() float32 {
	if sel := int(t.byte()); sel < len(edgeFloats) {
		return edgeFloats[sel]
	}
	return math.Float32frombits(t.u32())
}

// decodeAnswerTape builds a knowledge base, a program and a run result
// from a fuzz input. The tape reads, in order:
//
//	flags      bit 0 fused, bit 1 kb_generation from tape, bit 2 one
//	           node wide enough to split into subnodes, bit 3 negative
//	           virtual time
//	nodes      count byte (1 + n%8), then that many names (str)
//	relations  count byte (n%4), then names (str)
//	colors     count byte (n%4), then names (str)
//	kb_gen     u32, when flags bit 1
//	time       u32 shifted left by a byte (mod 32)
//	wall       u32 nanoseconds
//	program    count byte (1 + n%6), then a marker byte per instruction
//	message    str: a batch element's error message
//	results    collection count byte (n%5); per collection an op byte
//	           (n%3), an instr byte and an item count byte (n%8); per
//	           item node, value, origin, color, rel, weight and to
//
// Node ids reach two past the KB's nodes (unnamed ids), relation and
// color ids past the interned ones, and 255 picks the continuation
// relation or the subnode color.
func decodeAnswerTape(data []byte) (*semnet.KB, *isa.Program, *machine.Result, time.Duration, string) {
	t := &answerTape{b: data}
	flags := t.byte()
	kb := semnet.NewKB()
	for i, n := 0, 1+int(t.byte()%8); i < n; i++ {
		name := t.str()
		if _, err := kb.AddNode(name, 0); err != nil {
			_, _ = kb.AddNode(fmt.Sprintf("%s#%d", name, i), 0)
		}
	}
	for i, n := 0, int(t.byte()%4); i < n; i++ {
		_, _ = kb.InternRelation(t.str())
	}
	for i, n := 0, int(t.byte()%4); i < n; i++ {
		_, _ = kb.InternColor(t.str())
	}
	if flags&4 != 0 {
		wide := kb.Relation("wide")
		for range 2*semnet.RelationSlots + 1 {
			kb.MustAddLink(0, wide, 1, 0)
		}
		kb.Preprocess()
	}
	res := &machine.Result{Fused: flags&1 != 0}
	if flags&2 != 0 {
		res.KBGen = uint64(t.u32())
	}
	tm := int64(t.u32()) << (t.byte() % 32)
	if flags&8 != 0 {
		tm = -tm
	}
	res.Time = timing.Time(tm)
	wall := time.Duration(t.u32())
	prog := isa.NewProgram()
	for i, n := 0, 1+int(t.byte()%6); i < n; i++ {
		_ = prog.Add(isa.Instruction{Op: isa.OpClearMarker, M1: semnet.MarkerID(t.byte() % semnet.NumComplexMarkers)})
	}
	msg := t.str()

	ids := kb.NumNodes() + 2
	node := func() semnet.NodeID { return semnet.NodeID(int(t.byte()) % ids) }
	ops := [...]isa.Opcode{isa.OpCollectNode, isa.OpCollectRelation, isa.OpCollectColor}
	for i, n := 0, int(t.byte()%5); i < n; i++ {
		c := machine.Collection{Op: ops[t.byte()%3], Instr: int(t.byte())}
		for j, m := 0, int(t.byte()%8); j < m; j++ {
			it := machine.Item{Node: node(), Value: t.float(), Origin: node()}
			if b := t.byte(); b == 255 {
				it.Color = semnet.ColorSubnode
			} else {
				it.Color = semnet.Color(b % 8)
			}
			if b := t.byte(); b == 255 {
				it.Rel = semnet.RelCont
			} else {
				it.Rel = semnet.RelType(b % 8)
			}
			it.Weight, it.To = t.float(), node()
			c.Items = append(c.Items, it)
		}
		res.Collections = append(res.Collections, c)
	}
	return kb, prog, res, wall, msg
}

// FuzzAnswerEncoding checks the answer encoder against the
// encoding/json reference on tape-built results: the same bytes for
// every finite answer, alone and as a batch element, and a refusal of
// exactly the answers the reference cannot encode. The checked-in seeds
// (testdata/fuzz/FuzzAnswerEncoding) cover names with <>&, control
// bytes, invalid UTF-8 and U+2028/U+2029; all three collect ops; empty
// results, collections and items; the float edges; subnode names; and
// fused and kb_generation answers.
func FuzzAnswerEncoding(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		kb, prog, res, wall, msg := decodeAnswerTape(data)
		got, err := encodeAnswer(kb, prog, res, wall)
		want, refErr := referenceAnswer(kb, prog, res, wall)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("encoder error %v, reference error %v", err, refErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("encoder differs from reference at byte %d:\n got %q\nwant %q", firstDiff(got, want), got, want)
		}

		progs := []*isa.Program{prog, nil, nil}
		results := []*machine.Result{res, nil, nil}
		errs := []error{nil, fmt.Errorf("%w: %s", isa.ErrBadProgram, msg), errors.New(msg)}
		gotBatch := appendBatchAnswer(nil, kb, progs, results, errs, wall)
		if err != nil {
			// The reference cannot encode this batch at all; the
			// encoder answers the element with the internal error.
			var out BatchQueryResponse
			if derr := json.Unmarshal(gotBatch, &out); derr != nil {
				t.Fatalf("batch with a non-finite answer is not JSON: %v", derr)
			}
			if el := out.Results[0]; el.Result != nil || el.Error == nil || el.Error.Code != "internal" {
				t.Fatalf("non-finite batch element = %+v, want the internal error", el)
			}
			errs[0] = err
		}
		wantBatch, refErr := referenceBatchAnswer(kb, progs, results, errs, wall)
		if refErr != nil {
			t.Fatalf("reference batch: %v", refErr)
		}
		if !bytes.Equal(gotBatch, wantBatch) {
			t.Fatalf("batch differs from reference at byte %d:\n got %q\nwant %q", firstDiff(gotBatch, wantBatch), gotBatch, wantBatch)
		}
	})
}

// TestAppendStringMatchesEncodingJSON runs every byte value and a set
// of awkward runes through the string escaper.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	var samples []string
	for b := 0; b < 256; b++ {
		samples = append(samples, string([]byte{'a', byte(b), 'z'}))
	}
	samples = append(samples, "\u2028\u2029", "\u00e9\xff\u00e9", "\xe2\x80", "<script>&amp;</script>", "\U0001F600", "\x7f", "")
	for _, s := range samples {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestAppendFloat32MatchesEncodingJSON checks every edge value, a
// sweep of powers of ten around the format cutoffs, and the integers
// around zero and around 2^24 (the integer fast path's edge) against
// encoding/json.
func TestAppendFloat32MatchesEncodingJSON(t *testing.T) {
	vals := append([]float32(nil), edgeFloats...)
	for e := -45; e <= 38; e++ {
		v := float32(math.Pow10(e))
		vals = append(vals, v, -v, math.Nextafter32(v, 0), math.Nextafter32(v, float32(math.Inf(1))))
	}
	for n := int32(-300); n <= 300; n++ {
		vals = append(vals, float32(n), float32(n)+0.5, float32(1<<24+n), -float32(1<<24+n))
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			continue // non-finite: refused before encoding
		}
		if got := appendFloat32(nil, v); !bytes.Equal(got, want) {
			t.Errorf("appendFloat32(%g) = %s, want %s", v, got, want)
		}
	}
}

// TestNonFiniteAnswerRefused: an answer holding an infinity or NaN is
// an error, not a partial body.
func TestNonFiniteAnswerRefused(t *testing.T) {
	kb := semnet.NewKB()
	kb.MustAddNode("a", 0)
	prog := isa.NewProgram()
	for _, c := range []machine.Collection{
		{Op: isa.OpCollectNode, Items: []machine.Item{{Value: float32(math.Inf(1))}}},
		{Op: isa.OpCollectRelation, Items: []machine.Item{{Weight: float32(math.NaN())}}},
	} {
		res := &machine.Result{Collections: []machine.Collection{c}}
		if _, err := encodeAnswer(kb, prog, res, 0); err == nil || !strings.Contains(err.Error(), "JSON cannot carry") {
			t.Errorf("%v: err = %v, want a non-finite refusal", c.Op, err)
		}
	}
	// A non-finite field the op does not answer is not encoded at all.
	res := &machine.Result{Collections: []machine.Collection{
		{Op: isa.OpCollectColor, Items: []machine.Item{{Value: float32(math.Inf(1)), Weight: float32(math.NaN())}}},
	}}
	if _, err := encodeAnswer(kb, prog, res, 0); err != nil {
		t.Errorf("color collection: %v", err)
	}
}
