// Package jsonw reads and writes, in one pass and without reflection, the
// JSON that encoding/json itself emits for the scheduler's wire types.
//
// Reader accepts a deliberately small subset: the exact object keys the
// caller switches on (any order, each at most once), JSON whitespace,
// numbers checked against the JSON grammar, strings of printable ASCII
// without escapes, and null only where the caller asks for it. Everything
// else — a case-folded, unknown or repeated key, an escape, a syntax error,
// a value out of range — fails the reader, and its callers then hand the
// whole input to encoding/json, which stays the reference decoder and the
// only source of error texts. The input picks the path; there is no option.
//
// The append functions write exactly encoding/json's bytes: its float
// formatting rule and its string escaping (safe ASCII is copied, anything
// else goes through json.Marshal).
package jsonw

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// Reader is a single-pass cursor over one JSON document. Failure is sticky:
// once any read fails, every later read returns a zero value and More
// reports false, so a caller's loops end and it checks Failed once.
type Reader struct {
	data []byte
	pos  int
	bad  bool
}

// NewReader returns a Reader positioned at the start of data. The byte
// slices it returns alias data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Fail marks the read as failed.
func (r *Reader) Fail() { r.bad = true }

// Failed reports whether any read has failed.
func (r *Reader) Failed() bool { return r.bad }

// End reports whether the document was read without failure and only
// whitespace follows it.
func (r *Reader) End() bool {
	r.ws()
	return !r.bad && r.pos == len(r.data)
}

func (r *Reader) ws() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// Open consumes the '{' or '[' given as c, failing on anything else.
func (r *Reader) Open(c byte) bool {
	r.ws()
	if r.bad || r.pos >= len(r.data) || r.data[r.pos] != c {
		r.bad = true
		return false
	}
	r.pos++
	return true
}

// More reports whether the object or array being read has an i-th member
// (counting from 0), consuming the ',' before it; at the closing bracket
// close it consumes the bracket and reports false. The loop shape is
//
//	for i := 0; r.More(i, '}'); i++ { ... }
func (r *Reader) More(i int, close byte) bool {
	r.ws()
	if r.bad || r.pos >= len(r.data) {
		r.bad = true
		return false
	}
	if r.data[r.pos] == close {
		r.pos++
		return false
	}
	if i > 0 {
		if r.data[r.pos] != ',' {
			r.bad = true
			return false
		}
		r.pos++
	}
	return true
}

// Key reads an object key and the ':' after it.
func (r *Reader) Key() []byte {
	k := r.String()
	r.ws()
	if r.bad || r.pos >= len(r.data) || r.data[r.pos] != ':' {
		r.bad = true
		return nil
	}
	r.pos++
	return k
}

// Once records key bit in *seen, failing the read if the object already
// had that key: encoding/json never writes a key twice.
func (r *Reader) Once(seen *uint32, bit uint32) {
	if *seen&bit != 0 {
		r.bad = true
	}
	*seen |= bit
}

// String reads a string of printable ASCII without escapes and returns its
// content.
func (r *Reader) String() []byte {
	r.ws()
	if r.bad || r.pos >= len(r.data) || r.data[r.pos] != '"' {
		r.bad = true
		return nil
	}
	start := r.pos + 1
	for i := start; i < len(r.data); i++ {
		switch c := r.data[i]; {
		case c == '"':
			r.pos = i + 1
			return r.data[start:i]
		case c < 0x20 || c > 0x7e || c == '\\':
			r.bad = true
			return nil
		}
	}
	r.bad = true
	return nil
}

// Null consumes a null literal if one comes next and reports whether it
// did.
func (r *Reader) Null() bool {
	r.ws()
	if r.bad || len(r.data)-r.pos < 4 || string(r.data[r.pos:r.pos+4]) != "null" {
		return false
	}
	r.pos += 4
	return true
}

// number consumes a number token checked against the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether it
// is an integer: no fraction and no exponent.
func (r *Reader) number() (tok []byte, integer bool) {
	r.ws()
	d, i := r.data, r.pos
	if r.bad {
		return nil, false
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		i = digits(d, i)
	default:
		r.bad = true
		return nil, false
	}
	integer = true
	if i < len(d) && d[i] == '.' {
		integer = false
		if j := digits(d, i+1); j > i+1 {
			i = j
		} else {
			r.bad = true
			return nil, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		integer = false
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if j := digits(d, i); j > i {
			i = j
		} else {
			r.bad = true
			return nil, false
		}
	}
	tok = d[r.pos:i]
	r.pos = i
	return tok, integer
}

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && d[i] >= '0' && d[i] <= '9' {
		i++
	}
	return i
}

// Float reads a number as encoding/json decodes it into a float64; a
// number out of float64's range fails the read.
func (r *Reader) Float() float64 {
	tok, integer := r.number()
	if r.bad {
		return 0
	}
	if integer {
		if n, neg, ok := smallInt(tok, 15); ok {
			// below 1e15 every integer is a float64, so the conversion is
			// exact; negating a zero keeps -0's sign
			f := float64(n)
			if neg {
				f = -f
			}
			return f
		}
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.bad = true
		return 0
	}
	return f
}

// Int reads a number without fraction or exponent that fits an int, as
// encoding/json decodes it into an int.
func (r *Reader) Int() int {
	tok, integer := r.number()
	if r.bad || !integer {
		r.bad = true
		return 0
	}
	if n, neg, ok := smallInt(tok, 18); ok {
		if neg {
			n = -n
		}
		return int(n)
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		r.bad = true
		return 0
	}
	return int(n)
}

// smallInt parses an integer token of at most maxDigits digits, which
// cannot overflow an int64 for maxDigits <= 18.
func smallInt(tok []byte, maxDigits int) (n int64, neg, ok bool) {
	if len(tok) > 0 && tok[0] == '-' {
		neg, tok = true, tok[1:]
	}
	if len(tok) > maxDigits {
		return 0, false, false
	}
	for _, c := range tok {
		n = n*10 + int64(c-'0')
	}
	return n, neg, true
}

// AppendFloat appends f as encoding/json encodes a float64: shortest
// round-trip digits in 'f' format, switching to 'e' format below 1e-6 and
// from 1e21 in magnitude, with a one-digit exponent written without its
// leading zero (e-9, not e-09). NaN and ±Inf, which JSON cannot carry,
// fail with encoding/json's own error.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	if abs < 1e15 && abs == math.Trunc(abs) && (f != 0 || !math.Signbit(f)) {
		// integral values print as their integer digits in 'f' format
		return strconv.AppendInt(dst, int64(f), 10), nil
	}
	fmt := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmt = 'e'
	}
	dst = strconv.AppendFloat(dst, f, fmt, -1, 64)
	if fmt == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendString appends s as a JSON string the way encoding/json writes it:
// printable ASCII other than the quote, the backslash and the HTML
// characters <, > and & is copied as is; any other string is encoded by
// json.Marshal itself.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
