package engine

import (
	"bytes"
	"encoding/json"
	"time"

	"snap1/internal/isa"
	"snap1/internal/machine"
	"snap1/internal/semnet"
)

// The reflective answer path the answer encoder replaced, kept verbatim
// as the reference the encoder must match byte for byte: the answer is
// copied into QueryResponse values, names resolved one KB call at a
// time, then encoded by encoding/json.

// referenceErrorBody classifies err into the typed per-element envelope
// body.
func referenceErrorBody(err error) *ErrorBody {
	_, code, retryable := classify(err)
	return &ErrorBody{Code: code, Message: err.Error(), Retryable: retryable}
}

func referenceQueryResponse(kb *semnet.KB, prog *isa.Program, res *machine.Result, wall time.Duration) QueryResponse {
	out := QueryResponse{
		VirtualTime:  res.Time.String(),
		VirtualPicos: int64(res.Time),
		WallMicros:   wall.Microseconds(),
		ProgramHash:  referenceHashString(prog.Hash()),
		Instructions: prog.Len(),
		Fused:        res.Fused,
		KBGeneration: res.KBGen,
	}
	for _, coll := range res.Collections {
		qc := QueryCollection{Instr: coll.Instr, Op: coll.Op.String()}
		for _, it := range coll.Items {
			qi := QueryItem{Node: kb.Name(kb.Canonical(it.Node))}
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
		out.Collections = append(out.Collections, qc)
	}
	return out
}

func referenceHashString(h uint64) string {
	const hexdig = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = hexdig[h&0xf]
		h >>= 4
	}
	return string(buf[:])
}

// referenceEncode is what writeJSON wrote: v's JSON and a newline, or
// the encoder's error (writeJSON dropped it after the 200 was sent).
func referenceEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// referenceAnswer is the whole reference body of one answer.
func referenceAnswer(kb *semnet.KB, prog *isa.Program, res *machine.Result, wall time.Duration) ([]byte, error) {
	return referenceEncode(referenceQueryResponse(kb, prog, res, wall))
}

// referenceBatchAnswer is the whole reference body of a batch answer:
// element i answers results[i] of progs[i], or errs[i].
func referenceBatchAnswer(kb *semnet.KB, progs []*isa.Program, results []*machine.Result, errs []error, wall time.Duration) ([]byte, error) {
	out := BatchQueryResponse{Results: make([]BatchElement, len(progs))}
	for i := range progs {
		if errs[i] != nil {
			out.Results[i].Error = referenceErrorBody(errs[i])
			continue
		}
		resp := referenceQueryResponse(kb, progs[i], results[i], wall)
		out.Results[i].Result = &resp
	}
	return referenceEncode(out)
}
