package kbfile

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"snap1/internal/kbgen"
	"snap1/internal/semnet"
)

// FuzzParseDifferential holds Parse to the line-by-line reference parser
// on arbitrary input: the same error verdict (the same message when the
// reference returns one), and on success the same knowledge base — nodes
// with their names, colors, functions and links in order, the relation
// and color intern tables, link count and generation — before and after
// follow-on mutations and preprocessing. The checked-in corpus under
// testdata/fuzz covers CRLF, tabs, mid-line comments, the non-ASCII
// spaces strings.Fields splits on, unusual weights, duplicate nodes,
// interleaved link owners and a node past the 16-slot split.
func FuzzParseDifferential(f *testing.F) {
	f.Add([]byte(sample))
	f.Add([]byte("node a c\nnode b c\nlink a r 1 b\nlink b r 1 a\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDifferential(t, data)
	})
}

// referenceOutcome runs the reference parser, reporting a panic (its
// intern tables panic when full) as an error.
func referenceOutcome(data []byte) (kb *semnet.KB, err error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			kb, err, panicked = nil, fmt.Errorf("reference panicked: %v", p), true
		}
	}()
	kb, err = referenceParse(bytes.NewReader(data))
	return kb, err, false
}

func checkDifferential(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr, panicked := referenceOutcome(data)
	got, gotErr := Parse(bytes.NewReader(data))
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("reference error %v, Parse error %v", wantErr, gotErr)
	}
	if wantErr != nil {
		if !panicked && wantErr.Error() != gotErr.Error() {
			t.Fatalf("reference error %q, Parse error %q", wantErr, gotErr)
		}
		return
	}
	sameKB(t, want, got)

	// Append past every node's reserved link capacity: a node's links
	// must never spill into its neighbour's.
	if n := want.NumNodes(); n > 0 {
		for _, kb := range []*semnet.KB{want, got} {
			rel := kb.Relation("fuzz-extra")
			for id := 0; id < n; id++ {
				kb.MustAddLink(semnet.NodeID(id), rel, 1, semnet.NodeID(n-1-id))
			}
		}
		sameKB(t, want, got)
	}
	want.Preprocess()
	got.Preprocess()
	sameKB(t, want, got)
}

// sameKB fails t unless got matches want node for node, link for link,
// intern table for intern table.
func sameKB(t *testing.T, want, got *semnet.KB) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() || want.NumLinks() != got.NumLinks() {
		t.Fatalf("nodes/links: want %d/%d, got %d/%d",
			want.NumNodes(), want.NumLinks(), got.NumNodes(), got.NumLinks())
	}
	if want.Generation() != got.Generation() {
		t.Fatalf("generation: want %d, got %d", want.Generation(), got.Generation())
	}
	maxColor, maxRel := -1, -1
	for id := 0; id < want.NumNodes(); id++ {
		w, _ := want.Node(semnet.NodeID(id))
		g, _ := got.Node(semnet.NodeID(id))
		if w.Name != g.Name || w.Color != g.Color || w.Fn != g.Fn || w.IsSubnode() != g.IsSubnode() {
			t.Fatalf("node %d: want %q color %d fn %v, got %q color %d fn %v",
				id, w.Name, w.Color, w.Fn, g.Name, g.Color, g.Fn)
		}
		if gid, ok := got.Lookup(w.Name); !ok || gid != semnet.NodeID(id) {
			t.Fatalf("node %d: got Lookup(%q) = %d, %v", id, w.Name, gid, ok)
		}
		if len(w.Out) != len(g.Out) {
			t.Fatalf("node %q: want %d links, got %d", w.Name, len(w.Out), len(g.Out))
		}
		for i, wl := range w.Out {
			gl := g.Out[i]
			if wl.Rel != gl.Rel || wl.To != gl.To || math.Float32bits(wl.Weight) != math.Float32bits(gl.Weight) {
				t.Fatalf("node %q link %d: want %+v, got %+v", w.Name, i, wl, gl)
			}
			if wl.Rel != semnet.RelCont {
				maxRel = max(maxRel, int(wl.Rel))
			}
		}
		if w.Color != semnet.ColorSubnode {
			maxColor = max(maxColor, int(w.Color))
		}
	}
	// Every interned name is in use after a successful parse, so the
	// tables up to one past the highest ID in use cover them.
	for c := 0; c <= maxColor+1 && c < int(semnet.ColorSubnode); c++ {
		if w, g := want.ColorName(semnet.Color(c)), got.ColorName(semnet.Color(c)); w != g {
			t.Fatalf("color %d: want %q, got %q", c, w, g)
		}
	}
	for r := 0; r <= maxRel+1 && r < int(semnet.RelCont); r++ {
		if w, g := want.RelationName(semnet.RelType(r)), got.RelationName(semnet.RelType(r)); w != g {
			t.Fatalf("relation %d: want %q, got %q", r, w, g)
		}
	}
}

// Lines of 1 MiB or more (newline excluded) fail; shorter ones parse,
// with or without a final newline, exactly as in the reference.
func TestParseLineLimit(t *testing.T) {
	for _, n := range []int{maxLine - 2, maxLine - 1, maxLine, maxLine + 1} {
		comment := "#" + strings.Repeat("x", n-1)
		for _, c := range []struct {
			src  string
			long int // the long line's length, newline excluded
		}{
			{comment, n},
			{comment + "\n", n},
			{comment + "\nnode a c\n", n},
			{"node a c\n" + comment + "\r\nnode b c", n + 1},
		} {
			checkDifferential(t, []byte(c.src))
			tooLong := c.long >= maxLine
			if _, err := Parse(strings.NewReader(c.src)); (err != nil) != tooLong {
				t.Errorf("line of %d bytes: err %v", c.long, err)
			}
			// A caller's reader buffering more than a line must not
			// lift the limit.
			big := bufio.NewReaderSize(strings.NewReader(c.src), 4*maxLine)
			if _, err := Parse(big); (err != nil) != tooLong {
				t.Errorf("line of %d bytes through a %d-byte bufio.Reader: err %v", c.long, big.Size(), err)
			}
		}
	}
}

// A file naming more colors than the node table can hold fails with an
// error instead of the intern table's panic.
func TestParseColorExhaustion(t *testing.T) {
	var src strings.Builder
	for i := 0; i <= int(semnet.ColorSubnode); i++ {
		fmt.Fprintf(&src, "node n%d c%d\n", i, i)
	}
	checkDifferential(t, []byte(src.String()))
	if _, err := Parse(strings.NewReader(src.String())); err == nil {
		t.Fatal("256 colors parsed")
	}
}

// benchKB renders the 16K-node generated network the load benchmark
// serves.
func benchKB(tb testing.TB, nodes int) ([]byte, int) {
	tb.Helper()
	g, err := kbgen.Generate(kbgen.Params{Nodes: nodes, Seed: 1, WithDomain: true})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g.KB); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), g.KB.NumConcepts()
}

func BenchmarkParse(b *testing.B) {
	data, _ := benchKB(b, 16000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Parse(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// Parse allocates about once per node (its name) plus a constant: no
// per-line allocation.
func TestParseAllocs(t *testing.T) {
	data, nodes := benchKB(t, 4000)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Parse(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(nodes + 256); allocs > limit {
		t.Fatalf("Parse of %d nodes, %d bytes: %.0f allocs, limit %.0f", nodes, len(data), allocs, limit)
	}
	t.Logf("%d nodes: %.0f allocs", nodes, allocs)
}
