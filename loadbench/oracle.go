package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"

	"snap1/internal/engine"
	"snap1/internal/isa"
	"snap1/internal/kbfile"
	"snap1/internal/machine"
	"snap1/internal/semnet"
)

// snapdMachineConfig is the replica configuration snapd's flag defaults
// select: the paper's 16-cluster array, two marker units per cluster,
// semantic partitioning and the deterministic lockstep engine.
func snapdMachineConfig(kb *semnet.KB) machine.Config {
	cfg := machine.ApplyOptions(machine.PaperConfig(),
		machine.WithClusters(16),
		machine.WithMarkerUnits(2, 0),
		machine.WithPartition("semantic"),
		machine.WithDeterministic(true),
	)
	if need := (kb.NumNodes() + cfg.Clusters - 1) / cfg.Clusters; need > cfg.NodesPerCluster {
		cfg.NodesPerCluster = need
	}
	return cfg
}

// oracle answers every query with a solo, unoptimized lockstep run on
// its own reference copy of the knowledge base, which it advances
// through acknowledged writes in generation order.
type oracle struct {
	kb  *semnet.KB
	m   *machine.Machine
	asm *isa.Assembler
	// memo holds answers at the reference's current generation.
	memo map[string][]engine.QueryCollection
}

func loadKBFile(path string) (*semnet.KB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	kb, err := kbfile.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return kb, nil
}

func newOracle(kb *semnet.KB) (*oracle, error) {
	kb.Preprocess()
	m, err := machine.New(snapdMachineConfig(kb))
	if err != nil {
		return nil, err
	}
	if err := m.LoadKB(kb); err != nil {
		m.Close()
		return nil, err
	}
	return &oracle{kb: kb, m: m, asm: isa.NewAssembler(kb), memo: make(map[string][]engine.QueryCollection)}, nil
}

func (o *oracle) close() { o.m.Close() }

func (o *oracle) gen() uint64 { return o.kb.Generation() }

// run assembles and runs one program as written on a cleared machine.
func (o *oracle) run(text string) (*machine.Result, error) {
	prog, err := o.asm.Assemble(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	o.m.ClearMarkers()
	return o.m.Run(prog)
}

// expect returns the collections snapd must answer text with at the
// reference's current generation, named as the wire carries them. It
// memoizes the answer when keep is set.
func (o *oracle) expect(text string, keep bool) ([]engine.QueryCollection, error) {
	if c, ok := o.memo[text]; ok {
		return c, nil
	}
	res, err := o.run(text)
	if err != nil {
		return nil, err
	}
	c := wireCollections(o.kb, res)
	if keep {
		o.memo[text] = c
	}
	return c, nil
}

// apply replays an acknowledged write on the reference.
func (o *oracle) apply(text string) error {
	if _, err := o.run(text); err != nil {
		return err
	}
	clear(o.memo)
	return nil
}

// wireCollections renders a result's collections the way snapd's
// /v1/query encodes them.
func wireCollections(kb *semnet.KB, res *machine.Result) []engine.QueryCollection {
	var out []engine.QueryCollection
	for _, coll := range res.Collections {
		qc := engine.QueryCollection{Instr: coll.Instr, Op: coll.Op.String()}
		for _, it := range coll.Items {
			qi := engine.QueryItem{Node: kb.Name(kb.Canonical(it.Node))}
			switch coll.Op {
			case isa.OpCollectRelation:
				qi.Rel = kb.RelationName(it.Rel)
				qi.Weight = it.Weight
				qi.To = kb.Name(kb.Canonical(it.To))
			case isa.OpCollectColor:
				qi.Color = kb.ColorName(it.Color)
			default:
				qi.Value = it.Value
				qi.Origin = kb.Name(kb.Canonical(it.Origin))
			}
			qc.Items = append(qc.Items, qi)
		}
		out = append(out, qc)
	}
	return out
}

// verdict is the oracle's finding over a run's outcomes.
type verdict struct {
	checked    int
	mismatches int
	stale      int // reads that missed a write acknowledged before they were sent
	errs       []string
}

func (v *verdict) fail(kind *int, format string, args ...any) {
	*kind++
	if len(v.errs) < 5 {
		v.errs = append(v.errs, fmt.Sprintf(format, args...))
	}
}

// check compares every 200 answer with the reference. Reads are checked
// at the generation they report; writes are replayed in generation
// order, and a write whose generation does not advance the reference
// is one the server applied as a no-op. Reads sent after a write was
// acknowledged must report its generation or a later one. It drops
// each read's body once checked.
func (o *oracle) check(outs []outcome) verdict {
	// A first pass reads only each answer's generation, so the answers
	// are decoded in full one at a time below.
	type entry struct {
		o   *outcome
		gen uint64
	}
	var v verdict
	var reads, writes []entry
	for i := range outs {
		o := &outs[i]
		if !o.ok() {
			continue
		}
		var g struct {
			KBGeneration uint64 `json:"kb_generation"`
		}
		if err := json.Unmarshal(o.body, &g); err != nil {
			v.fail(&v.mismatches, "undecodable %s answer: %v", o.req.class, err)
			continue
		}
		if o.req.class == classWrite {
			writes = append(writes, entry{o, g.KBGeneration})
		} else {
			reads = append(reads, entry{o, g.KBGeneration})
		}
	}

	// Read-your-writes: a read sent after an acknowledgement observes it.
	byAck := append([]entry(nil), writes...)
	sort.Slice(byAck, func(i, j int) bool { return byAck[i].o.done.Before(byAck[j].o.done) })
	maxGen := make([]uint64, len(byAck))
	for i, w := range byAck {
		maxGen[i] = w.gen
		if i > 0 && maxGen[i-1] > w.gen {
			maxGen[i] = maxGen[i-1]
		}
	}
	for _, r := range reads {
		k := sort.Search(len(byAck), func(i int) bool { return !byAck[i].o.done.Before(r.o.sent) })
		if k > 0 && r.gen < maxGen[k-1] {
			v.fail(&v.stale, "%s read at generation %d sent after write generation %d was acknowledged",
				r.o.req.class, r.gen, maxGen[k-1])
		}
	}

	// Only texts still to be checked again stay memoized, so a run of
	// distinct (and heavy) answers does not pile up.
	left := make(map[string]int)
	for _, r := range reads {
		left[r.o.req.text]++
	}
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].gen < reads[j].gen })
	sort.SliceStable(writes, func(i, j int) bool { return writes[i].gen < writes[j].gen })
	for _, r := range reads {
		for len(writes) > 0 && writes[0].gen <= r.gen {
			w := writes[0]
			writes = writes[1:]
			if w.gen == o.gen() {
				continue // the server found nothing to change
			}
			if err := o.apply(w.o.req.text); err != nil {
				v.fail(&v.mismatches, "reference replay of %q: %v", w.o.req.text, err)
				continue
			}
			if o.gen() != w.gen {
				v.fail(&v.mismatches, "write %q acknowledged generation %d, reference reached %d",
					strings.TrimSpace(w.o.req.text), w.gen, o.gen())
			}
		}
		if r.gen != o.gen() {
			v.fail(&v.mismatches, "read at generation %d, reference replayed to %d", r.gen, o.gen())
			continue
		}
		text := r.o.req.text
		left[text]--
		want, err := o.expect(text, left[text] > 0)
		if left[text] == 0 {
			delete(o.memo, text)
		}
		if err != nil {
			v.fail(&v.mismatches, "reference run: %v", err)
			continue
		}
		var resp engine.QueryResponse
		err = json.Unmarshal(r.o.body, &resp)
		r.o.body = nil // checked once; let it go
		if err != nil {
			v.fail(&v.mismatches, "undecodable %s answer: %v", r.o.req.class, err)
			continue
		}
		v.checked++
		if !reflect.DeepEqual(want, resp.Collections) {
			v.fail(&v.mismatches, "%s answer differs from the reference at generation %d: %.120q",
				r.o.req.class, r.gen, r.o.req.text)
		}
	}
	return v
}
