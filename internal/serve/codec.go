package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The /v1/inspect codec. encoding/json's decode cost more than the rest of
// a served decision together, so the handler parses the canonical JSON a
// scheduler sends — the shape json.Marshal(InspectRequest) produces — in
// one pass over a pooled buffer, and hands every other input to
// encoding/json on the same bytes. The fast path only ever accepts input encoding/json decodes to the
// identical struct; it never errors itself, so error texts and the verdicts
// on exotic inputs are encoding/json's. FuzzDecodeInspectRequest holds the
// two decoders to that.

const (
	// maxBufferedBody bounds the bytes read into the pooled buffer; a
	// longer body streams its remainder through the fallback decoder.
	maxBufferedBody = 1 << 20
	// maxPooledBody bounds the buffers returned to the pool, so one large
	// body is not retained for the life of the process.
	maxPooledBody = 64 << 10
)

var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

func putBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}

// DecodeInspectRequest reads one InspectRequest from body into *req, which
// it zeroes first. It accepts and rejects exactly what
// json.NewDecoder(body).Decode(req) does, with the same error, and yields
// the same struct.
func DecodeInspectRequest(body io.Reader, req *InspectRequest) error {
	*req = InspectRequest{}
	bp := bodyPool.Get().(*[]byte)
	defer putBody(bp)
	b, rest := readBody(body, (*bp)[:0])
	*bp = b
	if rest == nil {
		p := inspectParser{b: b}
		if p.request(req) {
			return nil
		}
		*req = InspectRequest{}
	}
	src := io.Reader(bytes.NewReader(b))
	if rest != nil {
		src = io.MultiReader(src, rest)
	}
	return json.NewDecoder(src).Decode(req)
}

// readBody appends r's bytes to b until EOF or until b holds
// maxBufferedBody bytes. rest is nil when b holds the whole body;
// otherwise it yields what follows b: the unread remainder, or the read
// error that ended b.
func readBody(r io.Reader, b []byte) (_ []byte, rest io.Reader) {
	for {
		if len(b) >= maxBufferedBody {
			return b, r
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):min(cap(b), maxBufferedBody)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, errReader{err}
		}
	}
}

// errReader replays a read error to the fallback decoder.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// inspectParser parses the canonical subset of InspectRequest JSON: exact
// lowercase keys without escapes or duplicates, JSON numbers (integer
// literals only for int fields), true/false, and only whitespace after the
// object. Each method reports false, leaving the parser mid-input, on
// anything outside that subset.
type inspectParser struct {
	b []byte
	i int
}

func (p *inspectParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it is the next byte.
func (p *inspectParser) next(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object parses '{' key ':' value (',' key ':' value)* '}', calling field
// with each key after its ':' has been consumed. A key seen twice ends the
// parse: encoding/json would merge the two values.
func (p *inspectParser) object(field func(key []byte) (bit uint, ok bool)) bool {
	if !p.next('{') {
		return false
	}
	if p.next('}') {
		return true
	}
	var seen uint
	for {
		key, ok := p.key()
		if !ok || !p.next(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if p.next('}') {
			return true
		}
		if !p.next(',') {
			return false
		}
	}
}

// key parses a string without escapes and returns its bytes. Any byte
// that is not a plain key character leaves it to the fallback.
func (p *inspectParser) key() ([]byte, bool) {
	if !p.next('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c == '_' || 'a' <= c && c <= 'z':
			p.i++
		default:
			return nil, false
		}
	}
	return nil, false
}

// number scans one JSON number and returns its bytes and whether it is an
// integer literal (no fraction or exponent).
func (p *inspectParser) number() (_ []byte, integer, ok bool) {
	p.ws()
	b, start, i := p.b, p.i, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	j := digits(b, i)
	if j == i || j-i > 1 && b[i] == '0' { // no digits, or a leading zero
		return nil, false, false
	}
	i, integer = j, true
	if i < len(b) && b[i] == '.' {
		if j = digits(b, i+1); j == i+1 {
			return nil, false, false
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j = digits(b, i); j == i {
			return nil, false, false
		}
		i, integer = j, false
	}
	p.i = i
	return b[start:i], integer, true
}

// digits returns the index just past the run of ASCII digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float parses a number into a float64 field. An out-of-range value is
// left to the fallback, which reports it.
func (p *inspectParser) float(dst *float64) bool {
	s, _, ok := p.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(s), 64)
	*dst = f
	return err == nil
}

// int parses an integer literal into an int field.
func (p *inspectParser) int(dst *int) bool {
	s, integer, ok := p.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseInt(string(s), 10, 64)
	*dst = int(n)
	return err == nil && int64(*dst) == n
}

func (p *inspectParser) bool(dst *bool) bool {
	p.ws()
	switch {
	case bytes.HasPrefix(p.b[p.i:], []byte("true")):
		*dst, p.i = true, p.i+4
	case bytes.HasPrefix(p.b[p.i:], []byte("false")):
		*dst, p.i = false, p.i+5
	default:
		return false
	}
	return true
}

// job parses the fields shared by the job and each queue entry.
func (p *inspectParser) job(wait, est *float64, procs *int) bool {
	return p.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "wait":
			return 1 << 0, p.float(wait)
		case "est":
			return 1 << 1, p.float(est)
		case "procs":
			return 1 << 2, p.int(procs)
		}
		return 0, false
	})
}

// queue parses the queue array. Its length is counted up front (every
// entry is one '{' before the closing ']'), so the slice is allocated
// once; an entry takes at least 3 bytes ("{}" and a separator), which
// bounds the count on malformed input.
func (p *inspectParser) queue(dst *[]QueueItem) bool {
	if !p.next('[') {
		return false
	}
	rest := p.b[p.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	q := make([]QueueItem, 0, min(bytes.Count(rest, []byte("{")), (len(rest)+1)/3))
	if !p.next(']') {
		for {
			q = append(q, QueueItem{})
			it := &q[len(q)-1]
			if !p.job(&it.Wait, &it.Est, &it.Procs) {
				return false
			}
			if p.next(']') {
				break
			}
			if !p.next(',') {
				return false
			}
		}
	}
	*dst = q
	return true
}

// request parses a whole body: one object, then only whitespace.
func (p *inspectParser) request(req *InspectRequest) bool {
	ok := p.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "job":
			return 1 << 0, p.job(&req.Job.Wait, &req.Job.Est, &req.Job.Procs)
		case "rejections":
			return 1 << 1, p.int(&req.Rejections)
		case "free_procs":
			return 1 << 2, p.int(&req.FreeProcs)
		case "total_procs":
			return 1 << 3, p.int(&req.TotalProcs)
		case "backfill_enabled":
			return 1 << 4, p.bool(&req.BackfillEnabled)
		case "backfill_count":
			return 1 << 5, p.int(&req.BackfillCount)
		case "queue":
			return 1 << 6, p.queue(&req.Queue)
		}
		return 0, false
	})
	p.ws()
	return ok && p.i == len(p.b)
}

// jsonContentType is shared by every fast-path response; net/http never
// mutates header values.
var jsonContentType = []string{"application/json"}

// AppendInspectResponse appends resp as encoding/json's Encoder writes it,
// trailing newline included. It reports false, appending nothing, when
// RejectProb is not finite: encoding/json refuses those.
func AppendInspectResponse(b []byte, resp InspectResponse) ([]byte, bool) {
	f := resp.RejectProb
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	b = append(b, `{"reject":`...)
	b = strconv.AppendBool(b, resp.Reject)
	b = append(b, `,"reject_prob":`...)
	// encoding/json's float64 rule: 'f' except for tiny or huge
	// magnitudes, and no leading zero in a negative exponent.
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return append(b, "}\n"...), true
}

// writeInspectResponse writes resp as writeJSON would, encoded into a
// pooled buffer.
func writeInspectResponse(w http.ResponseWriter, resp InspectResponse) {
	bp := bodyPool.Get().(*[]byte)
	defer putBody(bp)
	b, ok := AppendInspectResponse((*bp)[:0], resp)
	if !ok {
		writeJSON(w, resp)
		return
	}
	*bp = b
	w.Header()["Content-Type"] = jsonContentType
	w.Write(b) // as in writeJSON: a failed write means the client is gone
}
