// Package kbfile reads and writes semantic networks in a plain text
// format, the host-side interchange for cmd/snapsim:
//
//	# comment
//	node <name> <color-name> [fn]
//	link <from> <relation-name> <weight> <to>
//
// Node and color names are free-form words; relations and colors are
// interned in declaration order, so a network round-trips exactly.
package kbfile

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"unicode"
	"unicode/utf8"

	"snap1/internal/semnet"
)

// maxLine bounds one input line, its newline excluded: a line of maxLine
// bytes or more fails with bufio.ErrTooLong.
const maxLine = 1 << 20

// Parse reads a knowledge base from r. Fields are separated by any
// Unicode white space, and a '#' starts a comment that runs to the end of
// the line. The whole load runs as one semnet bulk build: a single pass
// over the input bytes under one hold of the KB lock. Links are resolved
// and checked on their own line but stored after the last line, into
// per-node slices carved from one allocation; each node keeps its links
// in file order.
func Parse(r io.Reader) (*semnet.KB, error) {
	kb := semnet.NewKB()
	if err := kb.Build(func(b *semnet.Builder) error { return load(b, r) }); err != nil {
		return nil, err
	}
	return kb, nil
}

// pendingLink is a resolved link line waiting to be stored.
type pendingLink struct {
	from semnet.NodeID
	rel  semnet.RelType
	w    float32
	to   semnet.NodeID
}

// loader is the state of one Parse.
type loader struct {
	b      *semnet.Builder
	links  []pendingLink
	fields [5][]byte
}

func load(b *semnet.Builder, r io.Reader) error {
	br := bufio.NewReaderSize(r, maxLine)
	nodes, links := sizeHints(r)
	b.Grow(nodes)
	l := &loader{b: b, links: links}
	for lineNo := 1; ; lineNo++ {
		line, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			return bufio.ErrTooLong
		}
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if len(line) >= maxLine {
			return bufio.ErrTooLong
		}
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if n := splitFields(line, &l.fields); n > 0 {
			if err := l.parseLine(l.fields[:min(n, len(l.fields))], n); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	return l.storeLinks()
}

// Capacity hints from the input size. A generated knowledge base spends
// about 160 bytes of file per node (its node line and four link lines of
// about 40 bytes each). Estimating a node per 128 bytes and a link per 40
// sizes the tables for such files in one allocation each; a file of
// another shape grows them as needed, and one with fewer nodes than
// estimated holds at most 56 bytes of node-table capacity per 128 bytes
// of input.
const (
	bytesPerNodeHint = 128
	bytesPerLinkHint = 40
	maxNodesHint     = 1 << 20
)

// sizeHints estimates the node count and allocates the pending-link
// buffer when r reports its size (a regular file, or an in-memory reader
// with a Len method); otherwise both start empty.
func sizeHints(r io.Reader) (nodes int, links []pendingLink) {
	var size int64
	switch v := r.(type) {
	case interface{ Len() int }:
		size = int64(v.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			size = fi.Size()
		}
	}
	nodes = int(min(size/bytesPerNodeHint, maxNodesHint))
	return nodes, make([]pendingLink, 0, min(size/bytesPerLinkHint, 4*maxNodesHint))
}

// storeLinks appends the pending links in file order, after reserving
// every node's share of one link arena.
func (l *loader) storeLinks() error {
	counts := make([]int32, l.b.NumNodes())
	for i := range l.links {
		counts[l.links[i].from]++
	}
	l.b.ReserveLinks(counts)
	for i := range l.links {
		p := &l.links[i]
		if err := l.b.AddLink(p.from, p.rel, p.w, p.to); err != nil {
			return err
		}
	}
	return nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields cuts line at runs of Unicode white space, as strings.Fields
// does, storing the first len(dst) fields in dst without copying. It
// returns the total field count, which may exceed len(dst).
func splitFields(line []byte, dst *[5][]byte) int {
	n := 0
	for i := 0; ; {
		for i < len(line) && asciiSpace[line[i]] {
			i++
		}
		if i == len(line) {
			return n
		}
		start := i
		for i < len(line) && !asciiSpace[line[i]] {
			if line[i] >= utf8.RuneSelf {
				return splitFieldsUnicode(line, dst)
			}
			i++
		}
		if n < len(dst) {
			dst[n] = line[start:i]
		}
		n++
	}
}

// splitFieldsUnicode is splitFields for lines holding non-ASCII bytes,
// where U+0085, U+00A0 and the other Unicode spaces separate fields too
// and invalid UTF-8 bytes do not.
func splitFieldsUnicode(line []byte, dst *[5][]byte) int {
	n, start := 0, -1
	for i := 0; i < len(line); {
		r, w := rune(line[i]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRune(line[i:])
		}
		if space := unicode.IsSpace(r); space && start >= 0 {
			if n < len(dst) {
				dst[n] = line[start:i]
			}
			n++
			start = -1
		} else if !space && start < 0 {
			start = i
		}
		i += w
	}
	if start >= 0 {
		if n < len(dst) {
			dst[n] = line[start:]
		}
		n++
	}
	return n
}

// parseLine applies one directive line. fields holds the line's first
// fields and n its total field count; a link line is resolved and checked
// here and queued for storeLinks.
func (l *loader) parseLine(fields [][]byte, n int) error {
	b := l.b
	switch string(fields[0]) {
	case "node":
		if n < 3 || n > 4 {
			return fmt.Errorf("node wants <name> <color> [fn], got %d operands", n-1)
		}
		color, err := b.ColorFor(fields[2])
		if err != nil {
			return err
		}
		id, err := b.AddNode(fields[1], color)
		if err != nil {
			return err
		}
		if n == 4 {
			fn, err := parseFn(fields[3])
			if err != nil {
				return err
			}
			return b.SetFn(id, fn)
		}
		return nil
	case "link":
		if n != 5 {
			return fmt.Errorf("link wants <from> <rel> <weight> <to>, got %d operands", n-1)
		}
		from, ok := b.Lookup(fields[1])
		if !ok {
			return fmt.Errorf("unknown node %q", fields[1])
		}
		to, ok := b.Lookup(fields[4])
		if !ok {
			return fmt.Errorf("unknown node %q", fields[4])
		}
		w, err := strconv.ParseFloat(string(fields[3]), 32)
		if err != nil {
			return fmt.Errorf("bad weight %q", fields[3])
		}
		rel, err := b.Relation(fields[2])
		if err != nil {
			return err
		}
		l.links = append(l.links, pendingLink{from: from, rel: rel, w: float32(w), to: to})
		return nil
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
}

func parseFn(s []byte) (semnet.FuncCode, error) {
	switch string(s) {
	case "nop":
		return semnet.FuncNop, nil
	case "add":
		return semnet.FuncAdd, nil
	case "min":
		return semnet.FuncMin, nil
	case "max":
		return semnet.FuncMax, nil
	case "mul":
		return semnet.FuncMul, nil
	case "dec":
		return semnet.FuncDec, nil
	}
	return 0, fmt.Errorf("unknown function %q", s)
}

// Write renders kb in the text format, nodes before links, in ID order.
// Preprocessor subnodes are skipped: they are regenerated on load.
func Write(w io.Writer, kb *semnet.KB) error {
	bw := bufio.NewWriter(w)
	for id := 0; id < kb.NumNodes(); id++ {
		n, err := kb.Node(semnet.NodeID(id))
		if err != nil {
			return err
		}
		if n.IsSubnode() {
			continue
		}
		if n.Fn != semnet.FuncNop {
			fmt.Fprintf(bw, "node %s %s %s\n", n.Name, kb.ColorName(n.Color), n.Fn)
		} else {
			fmt.Fprintf(bw, "node %s %s\n", n.Name, kb.ColorName(n.Color))
		}
	}
	for id := 0; id < kb.NumNodes(); id++ {
		n, err := kb.Node(semnet.NodeID(id))
		if err != nil {
			return err
		}
		if n.IsSubnode() {
			continue
		}
		if err := writeLinks(bw, kb, semnet.NodeID(id), n); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeLinks emits a node's links, flattening continuation subnodes back
// into direct links so the file holds the logical network.
func writeLinks(w io.Writer, kb *semnet.KB, owner semnet.NodeID, n *semnet.Node) error {
	for _, l := range n.Out {
		if l.Rel == semnet.RelCont {
			sub, err := kb.Node(l.To)
			if err != nil {
				return err
			}
			if err := writeLinks(w, kb, owner, sub); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintf(w, "link %s %s %s %s\n",
			kb.Name(owner), kb.RelationName(l.Rel),
			strconv.FormatFloat(float64(l.Weight), 'g', -1, 32),
			kb.Name(kb.Canonical(l.To)))
	}
	return nil
}
