package server

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"mvolap/internal/core"
	"mvolap/internal/obs"
	"mvolap/internal/quality"
	"mvolap/internal/tql"
)

// encodeQueryResponse is the one /query body writer: it renders every
// statement's output — a SELECT's result, a QUALITY ranking, MODES, an
// EXPLAIN lineage — in the wire form encoding/json gives it (two-space
// indentation, HTML escaping, a trailing newline), writing the
// indentation directly while walking the known shape; a mode list and
// the trace, small and rare, go through encoding/json. The wire form is
// contractual: encode_test.go compares it with encoding/json byte for
// byte. trace, when not nil, is called with the body's fields once they
// are written and returns the span tree the body ends with, so a traced
// request's tree can say what writing them cost.
//
// The fields around the rows are written first, into a small buffer,
// and the rows' length is summed off the result's cells, so an untraced
// body is allocated once, at exactly its length: the result cache keeps
// no spare capacity.
func encodeQueryResponse(out *tql.Output, trace func(fields []byte) *obs.SpanNode) []byte {
	var buf [512]byte
	b := append(buf[:0], '{')
	res := out.Result
	if res != nil {
		if len(res.MeasureNames) > 0 {
			b = append(b, "\n  \"measures\": "...)
			b = appendStringArray(b, res.MeasureNames, 1)
			b = append(b, ',')
		}
		if len(res.GroupNames) > 0 {
			b = append(b, "\n  \"groups\": "...)
			b = appendStringArray(b, res.GroupNames, 1)
			b = append(b, ',')
		}
	}
	b = append(b, "\n  \"rows\": "...)
	rowsAt := len(b)
	if res != nil && res.Mode.String() != "" {
		b = append(b, ",\n  \"mode\": "...)
		b = appendJSONString(b, res.Mode.String())
	}
	b = append(b, ",\n  \"quality\": "...)
	b = appendJSONFloat(b, out.Quality)
	if res != nil && res.Dropped != 0 {
		b = append(b, ",\n  \"dropped\": "...)
		b = strconv.AppendInt(b, int64(res.Dropped), 10)
	}
	if len(out.Ranking) > 0 {
		b = append(b, ",\n  \"ranking\": ["...)
		for i, r := range out.Ranking {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {\n      \"mode\": "...)
			b = appendJSONString(b, r.Mode.String())
			b = append(b, ",\n      \"quality\": "...)
			b = appendJSONFloat(b, r.Quality)
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	if len(out.Modes) > 0 {
		b = appendIndented(b, "modes", modeEntries(out.Modes))
	}
	if out.Lineage != "" {
		b = append(b, ",\n  \"lineage\": "...)
		b = appendJSONString(b, out.Lineage)
	}
	const end = "\n}\n"
	body := make([]byte, 0, len(b)+rowsLen(res)+len(end))
	body = append(body, b[:rowsAt]...)
	body = appendResultRows(body, res)
	body = append(body, b[rowsAt:]...)
	if trace != nil {
		body = appendIndented(body, "trace", trace(body))
	}
	return append(body, end...)
}

// appendIndented writes a further top-level field of the body, its
// value encoded by encoding/json at the field's depth; a value
// encoding/json rejects is left out.
func appendIndented(b []byte, name string, v any) []byte {
	value, err := json.MarshalIndent(v, "  ", "  ")
	if err != nil {
		return b
	}
	b = append(b, ",\n  "...)
	b = appendJSONString(b, name)
	b = append(b, ": "...)
	return append(b, value...)
}

// The fixed text of a result row, around its time key, its groups and
// its values, confidence factors and colours; cellIndent opens each
// element of a row's arrays.
const (
	rowOpen     = "\n    {\n      \"time\": "
	rowGroups   = ",\n      \"groups\": "
	groupsClose = "\n      ]"
	rowNoValues = ",\n      \"values\": [],\n      \"cfs\": [],\n      \"colors\": []\n    }"
	rowValues   = ",\n      \"values\": ["
	rowCFs      = "\n      ],\n      \"cfs\": ["
	rowColors   = "\n      ],\n      \"colors\": ["
	rowClose    = "\n      ]\n    }"
	cellIndent  = "\n        "
	rowsClose   = "\n  ]"
)

// appendResultRows is the one row writer: it renders a result's cells
// as the response's "rows" array (opening bracket at indent depth 1),
// reading them where the result holds them. The array and each row's
// inner arrays are always present — [] when empty, never null — so
// clients can index into the response without null checks; groups are
// index-aligned with the response's groups, values, cfs and colors with
// its measures, and an unknown value (NaN, or any other non-finite
// float) is null. rowsLen must count what it writes.
func appendResultRows(b []byte, res *core.Result) []byte {
	if res == nil || res.Len() == 0 {
		return append(b, '[', ']')
	}
	na := len(res.GroupNames)
	b = append(b, '[')
	for i := range res.Len() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, rowOpen...)
		b = appendJSONString(b, res.TimeKey(i))
		b = append(b, rowGroups...)
		if na == 0 {
			b = append(b, '[', ']')
		} else {
			b = append(b, '[')
			for ai := range na {
				if ai > 0 {
					b = append(b, ',')
				}
				b = append(b, cellIndent...)
				b = appendJSONString(b, res.Group(i, ai))
			}
			b = append(b, groupsClose...)
		}
		values, cfs := res.Values(i), res.CFs(i)
		if len(values) == 0 {
			b = append(b, rowNoValues...)
			continue
		}
		b = append(b, rowValues...)
		for k, v := range values {
			if k > 0 {
				b = append(b, ',')
			}
			b = appendJSONValue(append(b, cellIndent...), v)
		}
		b = append(b, rowCFs...)
		for k, cf := range cfs {
			if k > 0 {
				b = append(b, ',')
			}
			b = appendCF(append(b, cellIndent...), cf)
		}
		b = append(b, rowColors...)
		for k, cf := range cfs {
			if k > 0 {
				b = append(b, ',')
			}
			b = appendColor(append(b, cellIndent...), cf)
		}
		b = append(b, rowClose...)
	}
	return append(b, rowsClose...)
}

// rowsLen returns the number of bytes appendResultRows writes for res:
// the fixed text every row of the result's shape writes, plus each
// cell's time key, groups, values, factors and colours as written into
// a scratch buffer.
func rowsLen(res *core.Result) int {
	if res == nil || res.Len() == 0 {
		return 2
	}
	n, na, nq := res.Len(), len(res.GroupNames), len(res.MeasureNames)
	// array writes nq elements at cellIndent, comma-separated.
	array := func(nq int) int { return nq*len(cellIndent) + nq - 1 }
	fixed := len(rowOpen) + len(rowGroups) + 2
	if na > 0 {
		fixed += array(na) - 1 + len(groupsClose)
	}
	if nq == 0 {
		fixed += len(rowNoValues)
	} else {
		fixed += len(rowValues) + len(rowCFs) + len(rowColors) + len(rowClose) + 3*array(nq)
	}
	size := len("[") + n*fixed + n - 1 + len(rowsClose)
	var buf [64]byte
	scratch := buf[:0]
	// Rows come sorted by time bucket: a row mostly repeats the key of
	// the row before.
	key, keyLen := "", 2
	for i := range n {
		if k := res.TimeKey(i); k != key {
			key, keyLen = k, jsonStringLen(k, scratch)
		}
		size += keyLen
		for ai := range na {
			size += jsonStringLen(res.Group(i, ai), scratch)
		}
		for _, v := range res.Values(i) {
			size += jsonValueLen(v, scratch)
		}
		for _, cf := range res.CFs(i) {
			if int(cf) < len(cfJSON) {
				size += len(cfJSON[cf]) + len(colorJSON[cf])
			} else {
				size += len(appendCF(scratch[:0], cf)) + len(appendColor(scratch[:0], cf))
			}
		}
	}
	return size
}

// jsonStringLen returns the length appendJSONString writes for s,
// writing it into scratch only when s holds a byte that is escaped or
// starts a multi-byte character.
func jsonStringLen(s string, scratch []byte) int {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return len(appendJSONString(scratch[:0], s))
		}
	}
	return len(s) + 2
}

// jsonValueLen returns the length appendJSONValue writes for v: the
// digits of a nonzero integral value below 2^53 in magnitude (the
// integer path of appendJSONFloat) are counted, any other value is
// written into scratch.
func jsonValueLen(v float64, scratch []byte) int {
	if abs := math.Abs(v); abs >= 1 && abs < 1<<53 && v == math.Trunc(v) {
		n := 1
		if v < 0 {
			n++
		}
		for x := uint64(abs); x >= 10; x /= 10 {
			n++
		}
		return n
	}
	return len(appendJSONValue(scratch[:0], v))
}

// appendJSONValue writes a measure value: null when it is unknown (NaN,
// or any other non-finite float).
func appendJSONValue(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	return appendJSONFloat(b, v)
}

// appendCF writes a confidence factor's code as a JSON string.
func appendCF(b []byte, cf core.Confidence) []byte {
	if int(cf) < len(cfJSON) {
		return append(b, cfJSON[cf]...)
	}
	return appendJSONString(b, cf.String())
}

// appendColor writes a confidence factor's §5.2 colour as a JSON string.
func appendColor(b []byte, cf core.Confidence) []byte {
	if int(cf) < len(colorJSON) {
		return append(b, colorJSON[cf]...)
	}
	return appendJSONString(b, quality.CellColor(cf).String())
}

// cfJSON and colorJSON hold, by confidence factor, the JSON strings of
// the four factors' codes and colours, written once per process rather
// than escaped once per measure and row.
var cfJSON, colorJSON = func() (cfs, colors [4]string) {
	for _, cf := range []core.Confidence{core.SourceData, core.ExactMapping, core.ApproxMapping, core.UnknownMapping} {
		cfs[cf] = string(appendJSONString(nil, cf.String()))
		colors[cf] = string(appendJSONString(nil, quality.CellColor(cf).String()))
	}
	return cfs, colors
}()

// appendStringArray writes a string array whose opening bracket sits at
// indent depth `depth` (elements indent one deeper). A nil slice is
// null, an empty one a compact [] — matching encoding/json.
func appendStringArray(b []byte, a []string, depth int) []byte {
	if a == nil {
		return append(b, "null"...)
	}
	if len(a) == 0 {
		return append(b, '[', ']')
	}
	b = append(b, '[')
	for i, s := range a {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendNewlineIndent(b, depth+1)
		b = appendJSONString(b, s)
	}
	b = appendNewlineIndent(b, depth)
	return append(b, ']')
}

func appendNewlineIndent(b []byte, depth int) []byte {
	b = append(b, '\n')
	for i := 0; i < depth; i++ {
		b = append(b, ' ', ' ')
	}
	return b
}

// appendJSONFloat mirrors encoding/json's float64 encoding: shortest
// representation, %f unless the exponent forces %e, with the exponent's
// leading zero trimmed. The caller has excluded NaN and ±Inf.
//
// A nonzero integral value below 2^53 in magnitude is written as an
// integer: every integer there is a float64, so the shortest
// representation that reads back as it is its own digits, which is what
// %f writes. Zero keeps the float path, which writes -0 for -0.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs > 0 && abs < 1<<53 {
		if i := int64(f); float64(i) == f {
			return strconv.AppendInt(b, i, 10)
		}
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString mirrors encoding/json's string encoding with HTML
// escaping on (the package default): quotes, backslashes, <, >, &,
// control bytes, U+2028/U+2029 and invalid UTF-8 are escaped exactly as
// encoding/json escapes them.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// Control bytes other than \n, \r, \t, and the
				// HTML-sensitive <, >, &.
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, "\\ufffd"...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
