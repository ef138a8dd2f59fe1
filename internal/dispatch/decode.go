package dispatch

import (
	"encoding/json"
	"strconv"
)

// Fast path for decoding peer NDJSON lines. The gather side of a
// scatter is per-result work exactly like the serve side: a coordinator
// re-reads every result its peers computed, and encoding/json's
// reflective Unmarshal (~5µs and several allocations per line) would
// make merging cost more than evaluating. This hand-rolled decoder
// parses the known line shape in ~1/10th of that, accepting fields in
// any order. It keeps only the answer fields: the echoed spec and the
// done line's stats are grammar-checked and skipped, since the
// coordinator names every spec from its own shard plan. Anything it
// does not recognize — escaped strings, unknown
// keys, exotic whitespace — falls back to encoding/json for that line,
// so the fast path is an optimization, never a compatibility wall.
// decode_test.go holds it byte-equivalent to encoding/json over
// randomized lines.

// decodeLine parses one NDJSON stream line into (result, done). A
// result line fills res and reports (true, false); the terminal line
// reports (false, true).
func decodeLine(raw []byte, res *wireResult) (isResult, done bool, err error) {
	if ok, isRes, isDone := fastDecodeLine(raw, res); ok {
		return isRes, isDone, nil
	}
	*res = wireResult{}
	var line wireLine
	if jerr := json.Unmarshal(raw, &line); jerr != nil {
		return false, false, jerr
	}
	if line.Result != nil {
		*res = *line.Result
		return true, false, nil
	}
	return false, line.Done, nil
}

// fastDecodeLine attempts the specialized parse. ok=false means "use
// the fallback", not "malformed".
func fastDecodeLine(raw []byte, res *wireResult) (ok, isResult, done bool) {
	p := parser{b: raw}
	if !p.expect('{') {
		return false, false, false
	}
	*res = wireResult{}
	for {
		key, kok := p.key()
		if !kok {
			return false, false, false
		}
		switch string(key) {
		case "result":
			if !p.parseResult(res) {
				return false, false, false
			}
			isResult = true
		case "done":
			b, bok := p.boolVal()
			if !bok {
				return false, false, false
			}
			done = b
		case "stats":
			if !p.skipValue(0) {
				return false, false, false
			}
		default:
			// encoding/json matches keys case-insensitively; rather
			// than replicate that, any key the fast path does not
			// expect verbatim routes the line to the fallback.
			return false, false, false
		}
		more, mok := p.next('}')
		if !mok {
			return false, false, false
		}
		if !more {
			break
		}
	}
	p.ws()
	if p.i != len(p.b) {
		return false, false, false
	}
	return true, isResult, done
}

// parser is a minimal cursor over one JSON line.
type parser struct {
	b []byte
	i int
}

func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *parser) expect(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key parses `"name":`, returning the raw name bytes.
func (p *parser) key() ([]byte, bool) {
	s, ok := p.stringVal()
	if !ok || !p.expect(':') {
		return nil, false
	}
	return s, true
}

// next consumes `,` (more=true) or the closing byte of the enclosing
// object or array (more=false).
func (p *parser) next(end byte) (more, ok bool) {
	p.ws()
	if p.i >= len(p.b) {
		return false, false
	}
	switch p.b[p.i] {
	case ',':
		p.i++
		return true, true
	case end:
		p.i++
		return false, true
	}
	return false, false
}

// stringVal parses a quoted printable-ASCII string with no escapes,
// returning its raw contents. Everything else bails to the
// encoding/json fallback: backslashes (escapes only occur in rare
// error messages), raw control bytes (JSON forbids them — the fallback
// rejects the line), and non-ASCII bytes (encoding/json coerces
// invalid UTF-8 to U+FFFD, and replicating that here is not worth it —
// our own wire vocabulary is pure ASCII).
func (p *parser) stringVal() ([]byte, bool) {
	p.ws()
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return nil, false
	}
	start := p.i + 1
	for j := start; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		case c == '"':
			p.i = j + 1
			return p.b[start:j], true
		}
	}
	return nil, false
}

func (p *parser) boolVal() (val, ok bool) {
	p.ws()
	rest := p.b[p.i:]
	if len(rest) >= 4 && string(rest[:4]) == "true" {
		p.i += 4
		return true, true
	}
	if len(rest) >= 5 && string(rest[:5]) == "false" {
		p.i += 5
		return false, true
	}
	return false, false
}

// numberSpan scans past one JSON number, returning its bytes. The span
// must satisfy the JSON number grammar exactly — strconv alone is
// laxer (it accepts leading zeros, "+5", "4.") and the fast path must
// never accept what encoding/json rejects.
func (p *parser) numberSpan() ([]byte, bool) {
	p.ws()
	start := p.i
	j := p.i
	for j < len(p.b) {
		switch c := p.b[j]; {
		case c >= '0' && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
			j++
		default:
			goto out
		}
	}
out:
	if j == start || !validJSONNumber(p.b[start:j]) {
		return nil, false
	}
	p.i = j
	return p.b[start:j], true
}

// validJSONNumber checks the RFC 8259 number grammar:
// '-'? ('0' | [1-9][0-9]*) ('.' [0-9]+)? ([eE] [+-]? [0-9]+)?
func validJSONNumber(b []byte) bool {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	return i == len(b)
}

func (p *parser) intVal() (int, bool) {
	s, ok := p.numberSpan()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(s), 10, 64)
	if err != nil {
		return 0, false
	}
	return int(v), true
}

func (p *parser) floatVal() (float64, bool) {
	s, ok := p.numberSpan()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(s), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// maxSkipDepth bounds how deeply skipValue nests; anything deeper goes
// to the fallback, which applies encoding/json's own nesting limit.
const maxSkipDepth = 32

// skipValue consumes one JSON value without keeping it: the echoed
// spec and the done line's stats. It walks the JSON grammar with the
// same primitives the kept fields use, so a value encoding/json would
// reject (a stray comma, a leading zero, a key with no value) fails
// here too and the line goes to the fallback, which reports it.
func (p *parser) skipValue(depth int) bool {
	p.ws()
	if p.i >= len(p.b) || depth > maxSkipDepth {
		return false
	}
	switch p.b[p.i] {
	case '"':
		_, ok := p.stringVal()
		return ok
	case '{':
		p.i++
		if p.expect('}') {
			return true
		}
		for {
			if _, ok := p.key(); !ok || !p.skipValue(depth+1) {
				return false
			}
			if more, ok := p.next('}'); !ok || !more {
				return ok
			}
		}
	case '[':
		p.i++
		if p.expect(']') {
			return true
		}
		for {
			if !p.skipValue(depth + 1) {
				return false
			}
			if more, ok := p.next(']'); !ok || !more {
				return ok
			}
		}
	case 't', 'f':
		_, ok := p.boolVal()
		return ok
	case 'n':
		if len(p.b)-p.i >= 4 && string(p.b[p.i:p.i+4]) == "null" {
			p.i += 4
			return true
		}
		return false
	default:
		_, ok := p.numberSpan()
		return ok
	}
}

// parseResult parses the `{"index":...}` result object.
func (p *parser) parseResult(res *wireResult) bool {
	if !p.expect('{') {
		return false
	}
	for {
		key, ok := p.key()
		if !ok {
			return false
		}
		switch string(key) {
		case "index":
			if res.Index, ok = p.intVal(); !ok {
				return false
			}
		case "spec":
			// The coordinator names the spec from its own shard plan.
			if !p.skipValue(0) {
				return false
			}
		case "cache_hit":
			if res.CacheHit, ok = p.boolVal(); !ok {
				return false
			}
		case "procs":
			if res.Procs, ok = p.intVal(); !ok {
				return false
			}
		case "procs_used":
			if res.ProcsUsed, ok = p.floatVal(); !ok {
				return false
			}
		case "area":
			if res.Area, ok = p.floatVal(); !ok {
				return false
			}
		case "cycle_time":
			if res.CycleTime, ok = p.floatVal(); !ok {
				return false
			}
		case "speedup":
			if res.Speedup, ok = p.floatVal(); !ok {
				return false
			}
		case "grid":
			if res.Grid, ok = p.intVal(); !ok {
				return false
			}
		case "value":
			if res.Value, ok = p.floatVal(); !ok {
				return false
			}
		case "error":
			s, sok := p.stringVal()
			if !sok {
				return false
			}
			res.Error = string(s)
		default:
			return false // unknown key: encoding/json decides (case folding)
		}
		more, mok := p.next('}')
		if !mok {
			return false
		}
		if !more {
			return true
		}
	}
}
