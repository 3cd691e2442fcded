package kbfile

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"snap1/internal/semnet"
)

// The line-by-line parser Parse replaced, kept unchanged apart from its
// names as the reference FuzzParseDifferential holds Parse to: a
// bufio.Scanner over 1 MiB lines, strings.Fields, and one locked KB call
// per lookup, intern and mutation.

// referenceParse reads a knowledge base from r.
func referenceParse(r io.Reader) (*semnet.KB, error) {
	kb := semnet.NewKB()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := referenceParseLine(kb, fields); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return kb, nil
}

func referenceParseLine(kb *semnet.KB, fields []string) error {
	switch fields[0] {
	case "node":
		if len(fields) < 3 || len(fields) > 4 {
			return fmt.Errorf("node wants <name> <color> [fn], got %d operands", len(fields)-1)
		}
		id, err := kb.AddNode(fields[1], kb.ColorFor(fields[2]))
		if err != nil {
			return err
		}
		if len(fields) == 4 {
			fn, err := referenceParseFn(fields[3])
			if err != nil {
				return err
			}
			if err := kb.SetFn(id, fn); err != nil {
				return err
			}
		}
		return nil
	case "link":
		if len(fields) != 5 {
			return fmt.Errorf("link wants <from> <rel> <weight> <to>, got %d operands", len(fields)-1)
		}
		from, ok := kb.Lookup(fields[1])
		if !ok {
			return fmt.Errorf("unknown node %q", fields[1])
		}
		to, ok := kb.Lookup(fields[4])
		if !ok {
			return fmt.Errorf("unknown node %q", fields[4])
		}
		w, err := strconv.ParseFloat(fields[3], 32)
		if err != nil {
			return fmt.Errorf("bad weight %q", fields[3])
		}
		return kb.AddLink(from, kb.Relation(fields[2]), float32(w), to)
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
}

func referenceParseFn(s string) (semnet.FuncCode, error) {
	switch s {
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
