package engine

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"snap1/internal/isa"
	"snap1/internal/machine"
	"snap1/internal/semnet"
)

// Answer encoding. A query answer is written straight from the run's
// *machine.Result: names resolve under one knowledge-base read lock per
// answer (semnet.KB.ReadNames) and the JSON is appended into one buffer
// sized from the row count, with no intermediate QueryResponse. The
// bytes are exactly those json.NewEncoder(w).Encode(QueryResponse{...})
// writes for the same answer — HTML-safe string escaping, float32
// formatting, omitempty and the trailing newline included — so clients
// decoding into QueryResponse see no difference.

// Per-row size guesses for the answer buffer: the fixed JSON of one
// item plus typical names. A guess that falls short costs one growth.
const (
	answerBaseSize = 256
	collectionSize = 64
	nodeRowSize    = 64
	relationRow    = 96
	colorRowSize   = 48
)

// answerSize estimates the encoded size of res's answer.
func answerSize(res *machine.Result) int {
	n := answerBaseSize
	for i := range res.Collections {
		c := &res.Collections[i]
		row := nodeRowSize
		switch c.Op {
		case isa.OpCollectRelation:
			row = relationRow
		case isa.OpCollectColor:
			row = colorRowSize
		}
		n += collectionSize + row*len(c.Items)
	}
	return n
}

// checkFinite reports the first answer number JSON cannot carry — an
// infinite or NaN value or weight — before anything is written, so the
// request can still answer an error envelope instead of a cut-off 200.
func checkFinite(res *machine.Result) error {
	for i := range res.Collections {
		c := &res.Collections[i]
		for j := range c.Items {
			f := c.Items[j].Value
			switch c.Op {
			case isa.OpCollectRelation:
				f = c.Items[j].Weight
			case isa.OpCollectColor:
				continue
			}
			if v := float64(f); math.IsInf(v, 0) || math.IsNaN(v) {
				return fmt.Errorf("answer of instruction %d holds %v, which JSON cannot carry", c.Instr, v)
			}
		}
	}
	return nil
}

// appendAnswer appends the QueryResponse JSON of a finite answer (see
// checkFinite), without the trailing newline, resolving names under one
// read lock of kb.
func appendAnswer(dst []byte, kb *semnet.KB, prog *isa.Program, res *machine.Result, wall time.Duration) []byte {
	kb.ReadNames(func(names semnet.NameView) {
		dst = appendQueryResponse(dst, names, prog, res, wall)
	})
	return dst
}

// writeAnswer answers one query: 200 with its QueryResponse JSON, or
// the internal error envelope for an answer JSON cannot carry.
func (e *Engine) writeAnswer(w http.ResponseWriter, prog *isa.Program, res *machine.Result, wall time.Duration) {
	if err := checkFinite(res); err != nil {
		e.writeError(w, err)
		return
	}
	buf := appendAnswer(make([]byte, 0, answerSize(res)), e.kb, prog, res, wall)
	writeBody(w, append(buf, '\n'))
}

// writeBatchAnswer answers a batch: element i carries results[i] of
// progs[i] when errs[i] is nil, else its error body.
func (e *Engine) writeBatchAnswer(w http.ResponseWriter, progs []*isa.Program, results []*machine.Result, errs []error, wall time.Duration) {
	size := 64
	for i, res := range results {
		size += 32
		if errs[i] == nil {
			size += answerSize(res)
		}
	}
	writeBody(w, appendBatchAnswer(make([]byte, 0, size), e.kb, progs, results, errs, wall))
}

// appendBatchAnswer appends the BatchQueryResponse JSON and its newline.
// An element whose answer holds a non-finite number carries the
// internal error body instead.
func appendBatchAnswer(dst []byte, kb *semnet.KB, progs []*isa.Program, results []*machine.Result, errs []error, wall time.Duration) []byte {
	dst = append(dst, `{"results":[`...)
	for i, res := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		err := errs[i]
		if err == nil {
			err = checkFinite(res)
		}
		if err == nil {
			dst = append(dst, `{"result":`...)
			dst = appendAnswer(dst, kb, progs[i], res, wall)
		} else {
			dst = append(dst, `{"error":`...)
			dst = appendErrorBody(dst, err)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// writeBody writes a complete 200 JSON body in one call.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// appendQueryResponse appends the QueryResponse JSON of a finite answer.
func appendQueryResponse(dst []byte, names semnet.NameView, prog *isa.Program, res *machine.Result, wall time.Duration) []byte {
	dst = append(dst, `{"virtual_time":`...)
	dst = appendString(dst, res.Time.String())
	dst = append(dst, `,"virtual_ps":`...)
	dst = strconv.AppendInt(dst, int64(res.Time), 10)
	dst = append(dst, `,"wall_us":`...)
	dst = strconv.AppendInt(dst, wall.Microseconds(), 10)
	dst = append(dst, `,"collections":`...)
	if len(res.Collections) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range res.Collections {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendCollection(dst, names, &res.Collections[i])
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"program_hash":"`...)
	dst = appendHash(dst, prog.Hash())
	dst = append(dst, `","instructions":`...)
	dst = strconv.AppendInt(dst, int64(prog.Len()), 10)
	if res.Fused {
		dst = append(dst, `,"fused":true`...)
	}
	if res.KBGen != 0 {
		dst = append(dst, `,"kb_generation":`...)
		dst = strconv.AppendUint(dst, res.KBGen, 10)
	}
	return append(dst, '}')
}

// appendCollection appends one QueryCollection; its rows carry the
// fields of the collection's op, each omitted when zero or empty.
func appendCollection(dst []byte, names semnet.NameView, c *machine.Collection) []byte {
	dst = append(dst, `{"instr":`...)
	dst = strconv.AppendInt(dst, int64(c.Instr), 10)
	dst = append(dst, `,"op":`...)
	dst = appendString(dst, c.Op.String())
	dst = append(dst, `,"items":`...)
	if len(c.Items) == 0 {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i := range c.Items {
		it := &c.Items[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"node":`...)
		dst = appendString(dst, names.Concept(it.Node))
		switch c.Op {
		case isa.OpCollectRelation:
			dst = appendStringField(dst, `,"rel":`, names.Relation(it.Rel))
			dst = appendFloatField(dst, `,"weight":`, it.Weight)
			dst = appendStringField(dst, `,"to":`, names.Concept(it.To))
		case isa.OpCollectColor:
			dst = appendStringField(dst, `,"color":`, names.Color(it.Color))
		default:
			dst = appendFloatField(dst, `,"value":`, it.Value)
			dst = appendStringField(dst, `,"origin":`, names.Concept(it.Origin))
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendErrorBody appends the ErrorBody err classifies to.
func appendErrorBody(dst []byte, err error) []byte {
	_, code, retryable := classify(err)
	dst = append(dst, `{"code":`...)
	dst = appendString(dst, code)
	dst = append(dst, `,"message":`...)
	dst = appendString(dst, err.Error())
	dst = append(dst, `,"retryable":`...)
	dst = strconv.AppendBool(dst, retryable)
	return append(dst, '}')
}

// appendStringField appends key and s unless s is empty (omitempty).
func appendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

// appendFloatField appends key and f unless f is zero or negative zero
// (omitempty).
func appendFloatField(dst []byte, key string, f float32) []byte {
	if f == 0 {
		return dst
	}
	return appendFloat32(append(dst, key...), f)
}

// appendFloat32 appends a finite float32 as encoding/json does: the
// shortest representation in 'f' form, or in 'e' form with a minimal
// exponent when |f| < 1e-6 or |f| >= 1e21.
func appendFloat32(dst []byte, f float32) []byte {
	// Marker values are often sums of integer weights. A nonzero
	// integer of magnitude up to 2^24 is exact in float32 and is its own
	// shortest representation, so it skips the shortest-digits search.
	if f != 0 && f >= -1<<24 && f <= 1<<24 && f == float32(int32(f)) {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	format := byte('f')
	if abs := float32(math.Abs(float64(f))); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, float64(f), format, -1, 32)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendHash appends h as 16 lower-case hex digits.
func appendHash(dst []byte, h uint64) []byte {
	const hexdig = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexdig[(h>>uint(shift))&0xf])
	}
	return dst
}

// htmlSafe marks the ASCII bytes a JSON string carries unescaped under
// encoding/json's default HTML-safe escaping: everything from space up
// except '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// appendString appends s as a quoted JSON string, escaped exactly as
// encoding/json's Encoder does by default: short escapes for '"', '\\',
// \b, \f, \n, \r and \t; \u00XX for other control bytes and for '<',
// '>' and '&'; \ufffd for each invalid UTF-8 byte; and \u2028, \u2029.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
