package exec

// Typed filter kernels for the vectorized scan (batch.go). A kernel is one
// pushed predicate of the shape `column op constant` specialized to the
// column's physical vector: it narrows a selection vector in a tight loop
// over int64/float64/string payloads instead of boxing each row into
// value.Value and walking the expression tree.
//
// Kernel semantics replicate evalBinary + value.Compare bit for bit:
//
//   - NULL rows never match (evalBinary resolves any comparison with NULL to
//     false before Compare runs);
//   - a NULL constant matches nothing — the whole scan short-circuits
//     (kernelNever);
//   - numeric comparisons go through float64 even for INT columns, exactly
//     like Compare (including its imprecision above 2^53 — the fuzzer holds
//     the batched and row paths to identical answers);
//   - text comparisons use strings.Compare on the raw payload.
//
// Anything a kernel cannot express with those exact semantics — OR trees,
// LIKE, arithmetic over columns, incomparable type classes (which must keep
// raising their row-path error) — stays a row-wise predicate on the batch.

import (
	"strings"

	"bdbms/internal/catalog"
	"bdbms/internal/storage"
	"bdbms/internal/value"
)

// kernelPred is one compiled `column op constant` filter. The operator is
// pre-split into the comparison outcomes that match: op "<=" sets lt and eq.
type kernelPred struct {
	slot       int // local column index within the source
	lt, eq, gt bool
	f          float64 // numeric constant (ColInt/ColFloat columns)
	s          string  // string constant (ColText columns)
}

type kernelClass uint8

const (
	// kernelNo: evaluate the predicate row-wise on the batch.
	kernelNo kernelClass = iota
	// kernelYes: run as a typed kernel.
	kernelYes
	// kernelNever: the predicate can never match any row (NULL constant).
	kernelNever
)

// compileKernel classifies one pushed predicate. It returns kernelYes with a
// compiled kernel, kernelNever when the comparison constant is NULL, or
// kernelNo when the predicate must run row-wise to preserve semantics.
func compileKernel(s *Session, p compiledPred, src *sourcePlan, schema *catalog.Schema, params value.Row) (kernelPred, kernelClass) {
	colExpr, constExpr, op, ok := comparisonParts(p.expr)
	if !ok {
		return kernelPred{}, kernelNo
	}
	slot, ok := p.slots.get(colExpr)
	if !ok {
		return kernelPred{}, kernelNo
	}
	local := slot - src.offset
	if local < 0 || local >= len(schema.Columns) {
		return kernelPred{}, kernelNo
	}
	cv, err := s.evalConst(constExpr, params)
	if err != nil {
		// The row path fails per row with the same error; let it.
		return kernelPred{}, kernelNo
	}
	if cv.IsNull() {
		return kernelPred{}, kernelNever
	}
	k := kernelPred{slot: local}
	switch op {
	case "=":
		k.eq = true
	case "<":
		k.lt = true
	case "<=":
		k.lt, k.eq = true, true
	case ">":
		k.gt = true
	case ">=":
		k.gt, k.eq = true, true
	default:
		return kernelPred{}, kernelNo
	}
	ct := schema.Columns[local].Type
	switch {
	case (ct == value.Int || ct == value.Float) && (cv.Type() == value.Int || cv.Type() == value.Float):
		k.f = cv.Float()
	case (ct == value.Text || ct == value.Sequence) && (cv.Type() == value.Text || cv.Type() == value.Sequence):
		k.s = cv.Text()
	default:
		// Incomparable type classes error row by row; BOOL/TIMESTAMP columns
		// are boxed anyway. Either way, row-wise.
		return kernelPred{}, kernelNo
	}
	return k, kernelYes
}

// matchCmp folds a three-way comparison outcome through the operator flags.
func (k *kernelPred) matchCmp(c int) bool {
	switch {
	case c < 0:
		return k.lt
	case c > 0:
		return k.gt
	default:
		return k.eq
	}
}

// applyKernel narrows sel to the rows of v that satisfy k, writing survivors
// into out (len 0, adequate cap) and returning it.
func applyKernel(v *bvec, k *kernelPred, sel, out []int32) []int32 {
	switch v.kind {
	case storage.ColInt:
		return filterInts(v.ints, v.valid, k, sel, out)
	case storage.ColFloat:
		return filterFloats(v.flts, v.valid, k, sel, out)
	case storage.ColText:
		if v.dict != nil {
			return filterDict(v, k, sel, out)
		}
		return filterStrs(v.strs, v.valid, k, sel, out)
	default:
		// compileKernel never targets ColOther vectors.
		return out
	}
}

func filterInts(ints []int64, valid []byte, k *kernelPred, sel, out []int32) []int32 {
	c := k.f
	for _, i := range sel {
		if valid != nil && valid[i] == 0 {
			continue
		}
		x := float64(ints[i])
		var m bool
		switch {
		case x < c:
			m = k.lt
		case x > c:
			m = k.gt
		default:
			m = k.eq
		}
		if m {
			out = append(out, i)
		}
	}
	return out
}

func filterFloats(flts []float64, valid []byte, k *kernelPred, sel, out []int32) []int32 {
	c := k.f
	for _, i := range sel {
		if valid != nil && valid[i] == 0 {
			continue
		}
		x := flts[i]
		var m bool
		switch {
		case x < c:
			m = k.lt
		case x > c:
			m = k.gt
		default:
			m = k.eq
		}
		if m {
			out = append(out, i)
		}
	}
	return out
}

func filterStrs(strs []string, valid []byte, k *kernelPred, sel, out []int32) []int32 {
	for _, i := range sel {
		if valid != nil && valid[i] == 0 {
			continue
		}
		if k.matchCmp(strings.Compare(strs[i], k.s)) {
			out = append(out, i)
		}
	}
	return out
}

// filterDict compares each distinct dictionary entry once, then scans the
// code vector against the precomputed verdicts — the payoff of dictionary
// coding on low-cardinality columns.
func filterDict(v *bvec, k *kernelPred, sel, out []int32) []int32 {
	var keep [maxKernelDict]bool
	for code, s := range v.dict {
		keep[code] = k.matchCmp(strings.Compare(s, k.s))
	}
	codes, valid := v.codes, v.valid
	for _, i := range sel {
		if valid != nil && valid[i] == 0 {
			continue
		}
		if keep[codes[i]] {
			out = append(out, i)
		}
	}
	return out
}

// maxKernelDict mirrors storage's 255-entry dictionary bound (codes fit one
// byte, so 256 verdict slots always suffice).
const maxKernelDict = 256
