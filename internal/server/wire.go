package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The wire codec of the per-step payloads: start, observation, decision and
// batch bodies. It writes exactly the bytes encoding/json writes for them
// and reads their canonical form — the bytes it writes — without
// reflection. Any other valid input is handed to encoding/json, so every
// accepted body, decoded value and error is what encoding/json gives.

// jsonAppender is a payload with a hand-written encoding. AppendJSON appends
// the bytes json.Marshal returns for the value, or fails with the error
// json.Marshal returns (a non-finite float); on failure the bytes it
// returns are unspecified.
type jsonAppender interface {
	AppendJSON(b []byte) ([]byte, error)
}

var (
	_ jsonAppender = BatchDecideRequest{}
	_ jsonAppender = BatchDecideResponse{}
	_ jsonAppender = DecisionResponse{}
	_ jsonAppender = ObservationRequest{}
	_ jsonAppender = StartRequest{}
	_ jsonAppender = StartResponse{}
)

// AppendJSON appends r's encoding/json encoding to b.
func (r BatchDecideRequest) AppendJSON(b []byte) ([]byte, error) {
	b, err := appendList(append(b, `{"beliefs":`...), r.Beliefs, appendFloats)
	return append(b, '}'), err
}

// AppendJSON appends r's encoding/json encoding to b.
func (r BatchDecideResponse) AppendJSON(b []byte) ([]byte, error) {
	b, err := appendList(append(b, `{"decisions":`...), r.Decisions,
		func(b []byte, d DecisionResponse) ([]byte, error) { return d.AppendJSON(b) })
	return append(b, '}'), err
}

// AppendJSON appends d's encoding/json encoding to b.
func (d DecisionResponse) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"action":`...)
	b = strconv.AppendInt(b, int64(d.Action), 10)
	b = append(b, `,"actionName":`...)
	b = appendString(b, d.ActionName)
	b = append(b, `,"terminate":`...)
	b = strconv.AppendBool(b, d.Terminate)
	b = append(b, `,"value":`...)
	b, err := appendFloat(b, d.Value)
	return append(b, '}'), err
}

// AppendJSON appends r's encoding/json encoding to b.
func (r ObservationRequest) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"action":`...)
	b = strconv.AppendInt(b, int64(r.Action), 10)
	b = append(b, `,"observation":`...)
	b = strconv.AppendInt(b, int64(r.Observation), 10)
	if r.ActionName != "" {
		b = append(b, `,"actionName":`...)
		b = appendString(b, r.ActionName)
	}
	if r.ObservationName != "" {
		b = append(b, `,"observationName":`...)
		b = appendString(b, r.ObservationName)
	}
	if r.StepIndex != nil {
		b = append(b, `,"stepIndex":`...)
		b = strconv.AppendInt(b, int64(*r.StepIndex), 10)
	}
	return append(b, '}'), nil
}

// AppendJSON appends r's encoding/json encoding to b.
func (r StartRequest) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, '{')
	if r.ClientKey != "" {
		b = append(b, `"clientKey":`...)
		b = appendString(b, r.ClientKey)
	}
	if r.First != nil {
		if r.ClientKey != "" {
			b = append(b, ',')
		}
		b = append(b, `"first":{"action":`...)
		b = strconv.AppendInt(b, int64(r.First.Action), 10)
		b = append(b, `,"observation":`...)
		b = strconv.AppendInt(b, int64(r.First.Observation), 10)
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// AppendJSON appends r's encoding/json encoding to b.
func (r StartResponse) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"episodeId":`...)
	b = strconv.AppendUint(b, r.EpisodeID, 10)
	if r.Decision != nil {
		var err error
		if b, err = r.Decision.AppendJSON(append(b, `,"decision":`...)); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendList appends xs as a JSON array, each element appended by elem,
// or null when xs is nil.
func appendList[T any](b []byte, xs []T, elem func([]byte, T) ([]byte, error)) ([]byte, error) {
	if xs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = elem(b, x); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendFloats appends v as a JSON array of numbers, or null when v is nil.
func appendFloats(b []byte, v []float64) ([]byte, error) {
	return appendList(b, v, appendFloat)
}

// appendFloat appends f formatted as encoding/json formats a float64: the
// shortest representation, in exponent form below 1e-6 and from 1e21 on,
// with no leading zero in a negative exponent. NaN and ±Inf fail with
// json.Marshal's error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	if math.Float64bits(f) == 0 {
		// +0, most of a sparse belief, is written without strconv; −0
		// keeps the general path and its sign.
		return append(b, '0'), nil
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes it with HTML
// escaping on: <, > and & as \u003c-style escapes, control bytes escaped,
// invalid UTF-8 replaced by \ufffd, and U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// bodyPool recycles the buffers bodies are read into and encoded in.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody is the largest buffer returned to bodyPool, so that a rare
// huge body does not stay pinned.
const maxPooledBody = 1 << 20

func getBody() *[]byte { return bodyPool.Get().(*[]byte) }

// putBody pools b as the memory behind buf.
func putBody(buf *[]byte, b []byte) {
	if cap(b) <= maxPooledBody {
		*buf = b[:0]
		bodyPool.Put(buf)
	}
}

// appendJSON appends v's json.Marshal encoding to b, through AppendJSON
// when v has one.
func appendJSON(b []byte, v any) ([]byte, error) {
	if a, ok := v.(jsonAppender); ok {
		return a.AppendJSON(b)
	}
	data, err := json.Marshal(v)
	return append(b, data...), err
}

// Marshal is json.Marshal, encoding the codec's payloads without
// reflection.
func Marshal(v any) ([]byte, error) {
	buf := getBody()
	b, err := appendJSON((*buf)[:0], v)
	defer putBody(buf, b)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(b), nil
}

// ReadJSON reads r to its end and decodes into v the JSON value the bytes
// start with. Its result is what json.NewDecoder(r).Decode(v) returns.
func ReadJSON(r io.Reader, v any) error {
	return readJSON(r, v, nil)
}

// DecodeScratch is memory the canonical decoder reuses for the batch
// bodies: a BatchDecideRequest's beliefs become windows of one flat array,
// and a BatchDecideResponse's decisions one reused slice whose action names
// are interned. What a decode through it returns is valid until its next
// decode, and a warm scratch decodes a canonical batch body without
// allocating. The zero value is ready to use; a scratch is not safe for
// concurrent use.
type DecodeScratch struct {
	flat      []float64
	ends      []int // ends[i] is where belief i stops in flat
	rows      [][]float64
	decisions []DecisionResponse
	names     map[string]string // interned action names
}

// maxInterned caps a scratch's interned names, so that a peer sending
// ever new names cannot grow it without bound.
const maxInterned = 64

// ReadJSON is ReadJSON, decoding a canonical batch body into sc's memory.
func (sc *DecodeScratch) ReadJSON(r io.Reader, v any) error {
	return readJSON(r, v, sc)
}

// intern returns b as a string, the one sc returned for the same bytes
// before when it still holds it. A nil sc allocates every string.
func (sc *DecodeScratch) intern(b []byte) string {
	if sc == nil {
		return string(b)
	}
	if s, ok := sc.names[string(b)]; ok {
		return s
	}
	if sc.names == nil || len(sc.names) >= maxInterned {
		sc.names = make(map[string]string)
	}
	s := string(b)
	sc.names[s] = s
	return s
}

// readJSON is ReadJSON with the scratch a batch body decodes into (nil for
// fresh memory). A body in canonical form for v is decoded without
// reflection. Anything else — and any body whose read failed — goes to
// encoding/json as the bytes read followed by the read's error, so the
// outcome is the streaming decode's, a read past http.MaxBytesReader's cap
// included.
func readJSON(r io.Reader, v any, sc *DecodeScratch) error {
	buf := getBody()
	data, err := readAll((*buf)[:0], r)
	defer putBody(buf, data)
	if err == nil && decodeCanonical(data, v, sc) {
		return nil
	}
	var src io.Reader = bytes.NewReader(data)
	if err != nil {
		src = io.MultiReader(src, errReader{err})
	}
	return json.NewDecoder(src).Decode(v)
}

// readAll appends r's bytes to b up to EOF, as io.ReadAll does.
func readAll(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodeCanonical decodes data into v when v is one of the codec's
// payloads and data is in its canonical form, and reports whether it did.
// What it decodes equals what encoding/json decodes; v is untouched when
// it did not.
func decodeCanonical(data []byte, v any, sc *DecodeScratch) bool {
	c := canon{data: data}
	var commit func()
	switch v := v.(type) {
	case *BatchDecideRequest:
		if sc == nil {
			sc = new(DecodeScratch)
		}
		beliefs := c.beliefs(sc)
		commit = func() { v.Beliefs = beliefs }
	case *BatchDecideResponse:
		ds := c.decisions(sc)
		commit = func() { v.Decisions = ds }
	case *DecisionResponse:
		d := c.decision(nil)
		commit = func() { *v = d }
	case *ObservationRequest:
		// Keys a body omits keep their old values under encoding/json; the
		// fast path serves only the zero value, where that is the zero.
		if *v == (ObservationRequest{}) {
			o := c.observation()
			commit = func() { *v = o }
		}
	case *StartRequest:
		if *v == (StartRequest{}) {
			req := c.start()
			commit = func() { *v = req }
		}
	case *StartResponse:
		c.lit(`{"episodeId":`)
		id := c.uint()
		decided := c.opt(`,"decision":`)
		var d DecisionResponse
		if decided {
			d = c.decision(nil)
		}
		c.lit("}")
		commit = func() {
			v.EpisodeID = id
			if decided {
				if v.Decision == nil {
					v.Decision = new(DecisionResponse)
				}
				*v.Decision = d
			}
		}
	}
	if commit == nil || !c.done() {
		return false
	}
	commit()
	return true
}

// canon reads the canonical form — the bytes AppendJSON writes, then at
// most the Encoder's trailing newline — with strings restricted to
// printable ASCII without escapes. Each read consumes one token; the first
// mismatch marks the cursor bad, and every later read on a bad cursor
// returns a zero value.
type canon struct {
	data []byte
	pos  int
	bad  bool
}

// done reports whether every read succeeded and only the optional
// trailing newline is left.
func (c *canon) done() bool {
	rest := c.data[c.pos:]
	return !c.bad && (len(rest) == 0 || len(rest) == 1 && rest[0] == '\n')
}

// opt consumes s if the input continues with it.
func (c *canon) opt(s string) bool {
	if c.bad || len(c.data)-c.pos < len(s) || string(c.data[c.pos:c.pos+len(s)]) != s {
		return false
	}
	c.pos += len(s)
	return true
}

// lit consumes s, which must come next.
func (c *canon) lit(s string) {
	if !c.opt(s) {
		c.bad = true
	}
}

// list consumes a JSON array, each element consumed by elem.
func (c *canon) list(elem func()) {
	c.lit("[")
	if c.opt("]") {
		return
	}
	for !c.bad {
		elem()
		if !c.more() {
			return
		}
	}
}

// more consumes what follows an array element: a comma, reporting that
// another element comes, or the closing bracket.
func (c *canon) more() bool {
	if !c.bad && c.pos < len(c.data) {
		switch c.data[c.pos] {
		case ',':
			c.pos++
			return true
		case ']':
			c.pos++
			return false
		}
	}
	c.bad = true
	return false
}

// number consumes the text of a JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (c *canon) number() []byte {
	if c.bad {
		return nil
	}
	d, i := c.data, c.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	ok := i < len(d) && d[i] == '0'
	if ok {
		i++
	} else {
		i, ok = digits(d, i)
	}
	if ok && i < len(d) && d[i] == '.' {
		i, ok = digits(d, i+1)
	}
	if ok && i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		i, ok = digits(d, i)
	}
	if !ok {
		c.bad = true
		return nil
	}
	num := d[c.pos:i]
	c.pos = i
	return num
}

// digits skips the decimal digits of d from i on and reports whether
// there was at least one.
func digits(d []byte, i int) (int, bool) {
	j := i
	for j < len(d) && '0' <= d[j] && d[j] <= '9' {
		j++
	}
	return j, j > i
}

// float consumes a number that fits a float64, parsed as encoding/json
// parses it.
func (c *canon) float() float64 {
	num := c.number()
	if c.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		c.bad = true
	}
	return f
}

// int consumes an integer that fits an int.
func (c *canon) int() int {
	num := c.number()
	if c.bad {
		return 0
	}
	n, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	if err != nil {
		c.bad = true
	}
	return int(n)
}

// uint consumes an integer that fits a uint64.
func (c *canon) uint() uint64 {
	num := c.number()
	if c.bad {
		return 0
	}
	n, err := strconv.ParseUint(string(num), 10, 64)
	if err != nil {
		c.bad = true
	}
	return n
}

// bool consumes true or false.
func (c *canon) bool() bool {
	if c.opt("true") {
		return true
	}
	c.lit("false")
	return false
}

// str consumes a string of printable ASCII without escapes.
func (c *canon) str() string { return string(c.rawStr()) }

// rawStr is str's bytes, a window of the input.
func (c *canon) rawStr() []byte {
	if c.bad || c.pos >= len(c.data) || c.data[c.pos] != '"' {
		c.bad = true
		return nil
	}
	d := c.data
	start := c.pos + 1
	for i := start; i < len(d); i++ {
		switch ch := d[i]; {
		case ch == '"':
			c.pos = i + 1
			return d[start:i]
		case ch < 0x20 || ch == '\\' || ch >= utf8.RuneSelf:
			c.bad = true
			return nil
		}
	}
	c.bad = true
	return nil
}

// decision consumes a DecisionResponse object, its action name interned
// in sc.
func (c *canon) decision(sc *DecodeScratch) DecisionResponse {
	var d DecisionResponse
	c.lit(`{"action":`)
	d.Action = c.int()
	c.lit(`,"actionName":`)
	d.ActionName = sc.intern(c.rawStr())
	c.lit(`,"terminate":`)
	d.Terminate = c.bool()
	c.lit(`,"value":`)
	d.Value = c.float()
	c.lit("}")
	return d
}

// decisions consumes a BatchDecideResponse object, into sc's memory when
// sc is not nil.
func (c *canon) decisions(sc *DecodeScratch) []DecisionResponse {
	c.lit(`{"decisions":`)
	var ds []DecisionResponse
	if sc != nil {
		ds = sc.decisions[:0]
	}
	if ds == nil {
		// Each decision opens one brace: size the slice by counting them.
		// An empty list decodes as encoding/json decodes it: empty, not nil.
		ds = make([]DecisionResponse, 0, bytes.Count(c.data[c.pos:], []byte{'{'}))
	}
	c.list(func() { ds = append(ds, c.decision(sc)) })
	c.lit("}")
	if sc != nil {
		sc.decisions = ds
	}
	return ds
}

// beliefs consumes a BatchDecideRequest object into sc.
func (c *canon) beliefs(sc *DecodeScratch) [][]float64 {
	flat, ends := sc.flat[:0], sc.ends[:0]
	if flat == nil {
		// An empty belief decodes as encoding/json decodes it: empty, not
		// nil.
		flat = []float64{}
	}
	c.lit(`{"beliefs":`)
	c.list(func() {
		flat = c.row(flat)
		ends = append(ends, len(flat))
	})
	c.lit("}")
	if c.bad {
		return nil
	}
	rows := sc.rows[:0]
	if rows == nil {
		rows = make([][]float64, 0, len(ends))
	}
	start := 0
	for _, end := range ends {
		rows = append(rows, flat[start:end:end])
		start = end
	}
	sc.flat, sc.ends, sc.rows = flat, ends, rows
	return rows
}

// row consumes one belief, a JSON array of numbers, and appends them to
// flat. A bare 0 — how +0, most of a sparse belief, is written — is read
// without strconv; every other number, -0 included, is parsed by float.
func (c *canon) row(flat []float64) []float64 {
	c.lit("[")
	if c.opt("]") {
		return flat
	}
	d := c.data
	for !c.bad {
		if i := c.pos; i+1 < len(d) && d[i] == '0' && (d[i+1] == ',' || d[i+1] == ']') {
			c.pos++
			flat = append(flat, 0)
		} else {
			flat = append(flat, c.float())
		}
		if !c.more() {
			break
		}
	}
	return flat
}

// start consumes a StartRequest object.
func (c *canon) start() StartRequest {
	var req StartRequest
	c.lit("{")
	keyed := c.opt(`"clientKey":`)
	if keyed {
		req.ClientKey = c.str()
	}
	if keyed && c.opt(`,"first":`) || !keyed && c.opt(`"first":`) {
		var first Step
		c.lit(`{"action":`)
		first.Action = c.int()
		c.lit(`,"observation":`)
		first.Observation = c.int()
		c.lit("}")
		req.First = &first
	}
	c.lit("}")
	return req
}

// observation consumes an ObservationRequest object.
func (c *canon) observation() ObservationRequest {
	var o ObservationRequest
	c.lit(`{"action":`)
	o.Action = c.int()
	c.lit(`,"observation":`)
	o.Observation = c.int()
	if c.opt(`,"actionName":`) {
		o.ActionName = c.str()
	}
	if c.opt(`,"observationName":`) {
		o.ObservationName = c.str()
	}
	if c.opt(`,"stepIndex":`) {
		step := c.int()
		o.StepIndex = &step
	}
	c.lit("}")
	return o
}
