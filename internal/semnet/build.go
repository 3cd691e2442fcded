package semnet

import "maps"

// Bulk loading. A loader that builds a whole network — kbfile.Parse
// reading a knowledge-base file — would otherwise take and release kb.mu
// once per name lookup, intern and mutation: several lock round trips per
// input line. Build takes the lock once for the whole load and hands the
// loader a Builder whose methods run the same unlocked internals the
// locked mutators wrap, so a bulk load bumps the generation and writes
// delta-log records exactly as the equivalent sequence of AddNode /
// SetFn / AddLink calls would.

// Builder is the mutation handle of one Build call. Names arrive as byte
// slices so a loader can pass fields cut straight from its input buffer:
// lookups and interning hits copy nothing, and a name is copied only
// when it is stored.
type Builder struct{ kb *KB }

// Build runs load with kb's write lock held for its whole duration.
// load must mutate the KB only through b, must not call kb's own methods
// (they would deadlock on the held lock), and must not retain b after it
// returns. Mutations made before an error stay applied; Build returns
// load's error.
func (kb *KB) Build(load func(b *Builder) error) error {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	return load(&Builder{kb: kb})
}

// Grow makes room for n more nodes in the node and name tables, so a
// loader that can estimate its node count pays for one allocation of
// each instead of repeated growth. It is a capacity hint only.
func (b *Builder) Grow(n int) {
	kb := b.kb
	if n <= cap(kb.nodes)-len(kb.nodes) {
		return
	}
	kb.nodes = append(make([]Node, 0, len(kb.nodes)+n), kb.nodes...)
	byName := make(map[string]NodeID, len(kb.byName)+n)
	maps.Copy(byName, kb.byName)
	kb.byName = byName
}

// NumNodes reports the node count, as KB.NumNodes.
func (b *Builder) NumNodes() int { return len(b.kb.nodes) }

// Lookup resolves a node name, as KB.Lookup.
func (b *Builder) Lookup(name []byte) (NodeID, bool) {
	id, ok := b.kb.byName[string(name)]
	return id, ok
}

// AddNode creates a node, as KB.AddNode.
func (b *Builder) AddNode(name []byte, color Color) (NodeID, error) {
	return b.kb.addNodeLocked(string(name), color)
}

// SetFn sets a node's propagation function, as KB.SetFn.
func (b *Builder) SetFn(id NodeID, fn FuncCode) error { return b.kb.setFnLocked(id, fn) }

// AddLink appends an outgoing link, as KB.AddLink.
func (b *Builder) AddLink(from NodeID, rel RelType, weight float32, to NodeID) error {
	return b.kb.addLinkLocked(from, rel, weight, to)
}

// Relation interns a relation-type name, as KB.Relation, but reports an
// exhausted type space as an ErrCapacity error instead of panicking.
func (b *Builder) Relation(name []byte) (RelType, error) {
	if r, ok := b.kb.relByName[string(name)]; ok {
		return r, nil
	}
	return b.kb.relationLocked(string(name))
}

// ColorFor interns a color name, as KB.ColorFor, but reports an
// exhausted color space as an ErrCapacity error instead of panicking.
func (b *Builder) ColorFor(name []byte) (Color, error) {
	if c, ok := b.kb.colorByNm[string(name)]; ok {
		return c, nil
	}
	return b.kb.colorLocked(string(name))
}

// ReserveLinks makes room for extra[id] more outgoing links at each node
// id < len(extra), which may not exceed the node count. Every node's new
// capacity is carved from one shared allocation instead of each Out
// slice growing separately. Each slice is capacity-limited to its own
// reservation, so appending past it reallocates rather than overrunning
// the neighbouring node. Existing links are kept in order; nothing
// observable changes, the generation included.
func (b *Builder) ReserveLinks(extra []int32) {
	nodes := b.kb.nodes
	total := 0
	for id, n := range extra {
		if n > 0 {
			total += len(nodes[id].Out) + int(n)
		}
	}
	arena := make([]Link, 0, total)
	for id, n := range extra {
		if n <= 0 {
			continue
		}
		out := nodes[id].Out
		start := len(arena)
		arena = append(arena, out...)
		nodes[id].Out = arena[start : len(arena) : len(arena)+int(n)]
		arena = arena[:len(arena)+int(n)]
	}
}
