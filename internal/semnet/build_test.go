package semnet

import (
	"errors"
	"reflect"
	"testing"
)

// A bulk build leaves the same KB, generation and delta-log records as
// the same mutations made through the locked methods.
func TestBuildMatchesLockedMutators(t *testing.T) {
	locked := NewKB()
	locked.EnableDeltaLog(0)
	a := locked.MustAddNode("a", locked.ColorFor("c"))
	b := locked.MustAddNode("b", locked.ColorFor("d"))
	if err := locked.SetFn(b, FuncMax); err != nil {
		t.Fatal(err)
	}
	locked.MustAddLink(a, locked.Relation("r"), 0.5, b)
	locked.MustAddLink(b, locked.Relation("s"), 1, a)
	locked.MustAddLink(a, locked.Relation("r"), 2, a)

	bulk := NewKB()
	bulk.EnableDeltaLog(0)
	err := bulk.Build(func(bl *Builder) error {
		bl.Grow(2)
		c, _ := bl.ColorFor([]byte("c"))
		a, err := bl.AddNode([]byte("a"), c)
		if err != nil {
			return err
		}
		d, _ := bl.ColorFor([]byte("d"))
		b, err := bl.AddNode([]byte("b"), d)
		if err != nil {
			return err
		}
		if err := bl.SetFn(b, FuncMax); err != nil {
			return err
		}
		if _, err := bl.AddNode([]byte("a"), c); !errors.Is(err, ErrDuplicateNode) {
			t.Errorf("duplicate AddNode: %v", err)
		}
		if id, ok := bl.Lookup([]byte("b")); !ok || id != b {
			t.Errorf("Lookup(b) = %d, %v", id, ok)
		}
		bl.ReserveLinks([]int32{2, 1})
		r, _ := bl.Relation([]byte("r"))
		s, _ := bl.Relation([]byte("s"))
		for _, l := range []struct {
			from NodeID
			rel  RelType
			w    float32
			to   NodeID
		}{{a, r, 0.5, b}, {b, s, 1, a}, {a, r, 2, a}} {
			if err := bl.AddLink(l.from, l.rel, l.w, l.to); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if locked.Generation() != bulk.Generation() {
		t.Fatalf("generation: locked %d, bulk %d", locked.Generation(), bulk.Generation())
	}
	lrecs, _ := locked.DeltaSince(0)
	brecs, _ := bulk.DeltaSince(0)
	if !reflect.DeepEqual(lrecs, brecs) {
		t.Fatalf("delta log:\nlocked %+v\nbulk   %+v", lrecs, brecs)
	}
	for id := NodeID(0); id < 2; id++ {
		ln, _ := locked.Node(id)
		bn, _ := bulk.Node(id)
		if ln.Name != bn.Name || ln.Color != bn.Color || ln.Fn != bn.Fn || !reflect.DeepEqual(ln.Out, bn.Out) {
			t.Fatalf("node %d: locked %+v, bulk %+v", id, ln, bn)
		}
	}
	for _, name := range []string{"r", "s"} {
		if locked.Relation(name) != bulk.Relation(name) {
			t.Errorf("relation %q interned differently", name)
		}
	}
}

// Appending past a node's reservation must not overwrite the next
// node's links in the shared arena.
func TestReserveLinksIsolatesNodes(t *testing.T) {
	kb := NewKB()
	col := kb.ColorFor("c")
	rel := kb.Relation("r")
	a := kb.MustAddNode("a", col)
	b := kb.MustAddNode("b", col)
	kb.MustAddLink(a, rel, 1, b) // an existing link moves into the arena
	if err := kb.Build(func(bl *Builder) error {
		bl.ReserveLinks([]int32{1, 1})
		if err := bl.AddLink(a, rel, 2, a); err != nil {
			return err
		}
		return bl.AddLink(b, rel, 3, a)
	}); err != nil {
		t.Fatal(err)
	}
	kb.MustAddLink(a, rel, 4, b) // past a's reservation
	an, _ := kb.Node(a)
	bn, _ := kb.Node(b)
	if len(an.Out) != 3 || an.Out[0].Weight != 1 || an.Out[1].Weight != 2 || an.Out[2].Weight != 4 {
		t.Errorf("a's links %+v", an.Out)
	}
	if len(bn.Out) != 1 || bn.Out[0].Weight != 3 {
		t.Errorf("b's links %+v, want one of weight 3", bn.Out)
	}
	if kb.NumLinks() != 4 {
		t.Errorf("NumLinks = %d, want 4", kb.NumLinks())
	}
}

// The interning methods report a full table as ErrCapacity instead of
// panicking like KB.ColorFor.
func TestBuilderColorExhaustion(t *testing.T) {
	kb := NewKB()
	err := kb.Build(func(bl *Builder) error {
		for i := 0; i <= int(ColorSubnode); i++ {
			if _, err := bl.ColorFor([]byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("256th color: %v, want ErrCapacity", err)
	}
}
