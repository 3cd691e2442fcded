package isa

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"snap1/internal/rules"
	"snap1/internal/semnet"
)

func asmKB(t *testing.T) *semnet.KB {
	t.Helper()
	kb := semnet.NewKB()
	col := kb.ColorFor("class")
	kb.MustAddNode("we", col)
	kb.MustAddNode("animate", col)
	kb.Relation("is-a")
	kb.Relation("last")
	return kb
}

const sampleAsm = `
# configuration phase
clear-marker marker=c1
search-node node=we marker=c1 value=0
search-color color=class marker=b0 value=1.5

# propagation
propagate m1=c1 m2=c2 rule=spread(is-a,last) fn=add
propagate m1=c2 m2=b1 rule=path(is-a) fn=nop

# accumulation
and-marker m1=c1 m2=c2 m3=c3 fn=max
not-marker m1=c3 m2=b2 value=2 cond=le
collect-node marker=c3
comm-end
`

func TestAssembleProgram(t *testing.T) {
	kb := asmKB(t)
	p, err := NewAssembler(kb).Assemble(strings.NewReader(sampleAsm))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 9 {
		t.Fatalf("assembled %d instructions", p.Len())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Rules.Len() != 2 {
		t.Fatalf("rule table = %d", p.Rules.Len())
	}
	in := p.Instrs[1]
	if in.Op != OpSearchNode || in.M1 != semnet.MarkerID(1) {
		t.Fatalf("search-node parsed as %+v", in)
	}
	if p.Instrs[2].Value != 1.5 {
		t.Error("value operand")
	}
	if p.Instrs[6].Cond != CondLE || p.Instrs[6].Value != 2 {
		t.Error("not-marker operands")
	}
}

func TestAssembleErrors(t *testing.T) {
	kb := asmKB(t)
	cases := []string{
		"bogus-op marker=c1",
		"search-node node=missing marker=c1",
		"search-node node=we marker=z1",
		"search-node node=we marker=c99",
		"search-node node=we marker=b99",
		"propagate m1=c1 m2=c2 fn=add", // missing rule
		"propagate m1=c1 m2=c2 rule=warp(is-a) fn=add",
		"propagate m1=c1 m2=c2 rule=spread(is-a) fn=add", // arity
		"propagate m1=c1 m2=c2 rule=spread(is-a,last) fn=frobnicate",
		"search-node node=we marker=c1 value=abc",
		"search-node node=we marker",
		"search-node unknownkey=1",
		"not-marker m1=c1 m2=c2 cond=sideways",
	}
	for _, src := range cases {
		if _, err := NewAssembler(kb).Assemble(strings.NewReader(src)); err == nil {
			t.Errorf("%q should fail to assemble", src)
		}
	}
}

func TestAssembleNumericNode(t *testing.T) {
	kb := asmKB(t)
	p, err := NewAssembler(kb).Assemble(strings.NewReader("search-node node=1 marker=c0 value=0"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Node != semnet.NodeID(1) {
		t.Fatal("numeric node id")
	}
}

// Disassembling and re-assembling every instruction form must round-trip.
func TestAsmRoundTrip(t *testing.T) {
	kb := asmKB(t)
	we, _ := kb.Lookup("we")
	anim, _ := kb.Lookup("animate")
	isa := kb.Relation("is-a")
	last := kb.Relation("last")
	col := kb.ColorFor("class")

	p := NewProgram()
	p.Create(we, isa, 0.5, anim)
	p.Delete(we, isa, anim)
	p.SetColor(we, col)
	p.SearchNode(we, 1, 0.25)
	p.SearchRelation(isa, 2, 0)
	p.SearchColor(col, semnet.Binary(3), 1)
	p.Propagate(1, 2, rules.Spread(isa, last), semnet.FuncAdd)
	p.MarkerCreate(2, isa, anim, last, true)
	p.MarkerDelete(2, isa, anim, last, true)
	p.MarkerSetColor(2, col)
	p.And(1, 2, 3, semnet.FuncMax)
	p.Or(1, 2, 3, semnet.FuncMin)
	p.Not(1, semnet.Binary(2), 2, CondGT)
	p.Set(4, 9)
	p.ClearM(4)
	p.Func(4, semnet.FuncMul, 3)
	p.CollectNode(4)
	p.CollectRelation(4, isa)
	p.CollectColor(4)
	p.Barrier()

	var src strings.Builder
	for i := range p.Instrs {
		src.WriteString(Disassemble(&p.Instrs[i], kb, p.Rules))
		src.WriteByte('\n')
	}
	p2, err := NewAssembler(kb).Assemble(strings.NewReader(src.String()))
	if err != nil {
		t.Fatalf("reassemble:\n%s\n%v", src.String(), err)
	}
	if p2.Len() != p.Len() {
		t.Fatalf("round trip length %d != %d", p2.Len(), p.Len())
	}
	for i := range p.Instrs {
		a, b := p.Instrs[i], p2.Instrs[i]
		// Rule tokens may renumber; compare everything else.
		a.Rule, b.Rule = 0, 0
		if a != b {
			t.Errorf("instruction %d: %+v != %+v\nasm: %s", i, a, b,
				Disassemble(&p.Instrs[i], kb, p.Rules))
		}
	}
}

// TestLookupAssemblerNeverInterns: the lookup-only assembler resolves
// known relation and color names like the interning one, refuses
// unknown ones as bad programs, and leaves the KB's tables untouched.
func TestLookupAssemblerNeverInterns(t *testing.T) {
	kb := asmKB(t)
	look := NewLookupAssembler(kb)
	known, err := look.Assemble(strings.NewReader(sampleAsm))
	if err != nil {
		t.Fatal(err)
	}
	interned, err := NewAssembler(kb).Assemble(strings.NewReader(sampleAsm))
	if err != nil {
		t.Fatal(err)
	}
	if known.Hash() != interned.Hash() {
		t.Error("lookup-only and interning assembly of known names differ")
	}
	for _, src := range []string{
		"search-color color=plaid marker=c1 value=0",
		"search-relation rel=owns marker=c1 value=0",
		"collect-relation marker=c1 rel=owns",
		"marker-create marker=c1 rel=is-a dst=we rev=owned-by",
		"propagate m1=c1 m2=c2 rule=path(owns) fn=add",
		"propagate m1=c1 m2=c2 rule=spread(is-a,owns) fn=add",
	} {
		_, err := look.Assemble(strings.NewReader(src))
		if !errors.Is(err, ErrBadProgram) {
			t.Errorf("%q: err = %v, want ErrBadProgram", src, err)
		}
	}
	if _, ok := kb.LookupColor("plaid"); ok {
		t.Error("lookup-only assembly interned a color")
	}
	for _, name := range []string{"owns", "owned-by"} {
		if _, ok := kb.LookupRelation(name); ok {
			t.Errorf("lookup-only assembly interned relation %q", name)
		}
	}
}

// TestAssemblerRefusesNonFinite: value= and weight= operands must be
// finite; an answer carrying an infinity or NaN could not be encoded.
func TestAssemblerRefusesNonFinite(t *testing.T) {
	kb := asmKB(t)
	for _, src := range []string{
		"search-node node=we marker=c1 value=inf",
		"search-node node=we marker=c1 value=-Inf",
		"set-marker marker=c1 value=NaN",
		"func-marker marker=c1 fn=add operand=+inf",
		"create src=we rel=is-a w=inf dst=animate",
		"create src=we rel=is-a weight=nan dst=animate",
		"set-marker marker=c1 value=1e39",
	} {
		if _, err := NewAssembler(kb).Assemble(strings.NewReader(src)); !errors.Is(err, ErrBadProgram) {
			t.Errorf("%q: err = %v, want ErrBadProgram", src, err)
		}
	}
	if _, err := NewAssembler(kb).Assemble(strings.NewReader("set-marker marker=c1 value=3.4e38")); err != nil {
		t.Errorf("largest finite float32: %v", err)
	}
}

// TestAssemblerColorTableFull: the interning assembler reports a full
// color table as a bad program instead of panicking.
func TestAssemblerColorTableFull(t *testing.T) {
	kb := asmKB(t)
	var src strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&src, "search-color color=c-%d marker=c1 value=0\n", i)
	}
	_, err := NewAssembler(kb).Assemble(strings.NewReader(src.String()))
	if !errors.Is(err, ErrBadProgram) || !strings.Contains(err.Error(), "color space exhausted") {
		t.Fatalf("err = %v, want a bad program naming the full color table", err)
	}
}
