// Package jsonw appends indented JSON documents field by field. The
// bytes equal what encoding/json's Encoder writes after
// SetIndent("", "  "): floats in the shortest 'f' or 'e' form with the
// same exponent cutoffs, HTML-safe string escaping, null for a nil
// slice and [] for an empty one, and the same layout of empty
// containers. The report encoders drive it directly, so encoding a
// document costs no reflection and, into a buffer with room, no
// allocation.
package jsonw

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Appender builds one JSON document in b, indenting two spaces per
// nesting level. The first error (a NaN or infinite float, or a failed
// delegated value) sticks; Finish then writes nothing.
type Appender struct {
	b     []byte
	depth int
	empty bool // the innermost open container has no member yet
	err   error
}

// Start returns an Appender that builds in w's spare capacity when w
// offers it (bytes.Buffer, bufio.Writer): the document is built in
// place and, while it fits, nothing is allocated.
func Start(w io.Writer) Appender {
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		return Appender{b: ab.AvailableBuffer()}
	}
	return Appender{}
}

// Finish ends the document with a newline, as Encoder.Encode does, and
// writes it to w in one call. After an encoding error it writes nothing
// and returns that error.
func (a *Appender) Finish(w io.Writer) error {
	if a.err != nil {
		return a.err
	}
	a.b = append(a.b, '\n')
	_, err := w.Write(a.b)
	return err
}

// Open starts an object ('{') or an array ('[').
func (a *Appender) Open(c byte) {
	a.b = append(a.b, c)
	a.depth++
	a.empty = true
}

// Close ends the innermost container with '}' or ']'. An empty
// container stays on one line: {} or [].
func (a *Appender) Close(c byte) {
	a.depth--
	if !a.empty {
		a.newline()
	}
	a.b = append(a.b, c)
	a.empty = false
}

// Key starts the object member k; the next value call writes its
// value.
func (a *Appender) Key(k string) *Appender {
	a.next()
	a.b = appendString(a.b, k)
	a.b = append(a.b, ':', ' ')
	return a
}

// next separates a new member or element from the previous one and
// puts it on its own line.
func (a *Appender) next() {
	if !a.empty {
		a.b = append(a.b, ',')
	}
	a.empty = false
	a.newline()
}

func (a *Appender) newline() {
	a.b = append(a.b, '\n')
	for i := 0; i < a.depth; i++ {
		a.b = append(a.b, ' ', ' ')
	}
}

// Null appends null.
func (a *Appender) Null() { a.b = append(a.b, "null"...) }

// String appends s as a JSON string.
func (a *Appender) String(s string) { a.b = appendString(a.b, s) }

// Int appends v.
func (a *Appender) Int(v int64) { a.b = strconv.AppendInt(a.b, v, 10) }

// Float appends f as encoding/json does: the shortest representation
// that round-trips, in 'e' form outside [1e-6, 1e21) with the
// exponent's leading zero dropped. NaN and ±Inf have no JSON form and
// fail the document.
func (a *Appender) Float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		a.fail(errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64)))
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	a.b = strconv.AppendFloat(a.b, f, format, -1, 64)
	if n := len(a.b); format == 'e' && a.b[n-4] == 'e' && a.b[n-3] == '-' && a.b[n-2] == '0' {
		a.b[n-2] = a.b[n-1] // e-07 → e-7
		a.b = a.b[:n-1]
	}
}

// Floats appends v as an array, or null when v is nil.
func (a *Appender) Floats(v []float64) {
	if v == nil {
		a.Null()
		return
	}
	a.FloatsFunc(len(v), func(i int) float64 { return v[i] })
}

// FloatsFunc appends the array [at(0), …, at(n-1)], as Floats appends
// that slice, for values a caller can compute but has no slice of.
func (a *Appender) FloatsFunc(n int, at func(i int) float64) {
	a.Open('[')
	for i := 0; i < n; i++ {
		a.next()
		a.Float(at(i))
	}
	a.Close(']')
}

// Ints appends v as an array, or null when v is nil.
func (a *Appender) Ints(v []int) {
	if v == nil {
		a.Null()
		return
	}
	a.Open('[')
	for _, n := range v {
		a.next()
		a.Int(int64(n))
	}
	a.Close(']')
}

// Slice appends v as an array whose elements elem writes, or null when
// v is nil. Floats and Ints are its allocation-free forms: a call
// through elem makes the Appender escape to the heap.
func Slice[T any](a *Appender, v []T, elem func(*Appender, T)) {
	if v == nil {
		a.Null()
		return
	}
	a.Open('[')
	for _, x := range v {
		a.next()
		elem(a, x)
	}
	a.Close(']')
}

// Indented appends v as json.MarshalIndent lays it out at the current
// depth. It is for nested values rare enough that reflection costs
// nothing that matters.
func (a *Appender) Indented(v any) {
	b, err := json.MarshalIndent(v, strings.Repeat("  ", a.depth), "  ")
	if err != nil {
		a.fail(err)
		return
	}
	a.b = append(a.b, b...)
}

func (a *Appender) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

const hexDigits = "0123456789abcdef"

// appendString quotes s with encoding/json's HTML-safe escaping: the
// short escapes for quote, backslash and \b \f \n \r \t; \u00XX for
// other control bytes and for < > &; U+2028 and U+2029, which
// JavaScript reads as line breaks; and \ufffd for each byte of invalid
// UTF-8.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	done := 0 // s[:done] is in b
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			var esc string
			switch {
			case r == utf8.RuneError && size == 1:
				esc = `\ufffd`
			case r == '\u2028':
				esc = `\u2028`
			case r == '\u2029':
				esc = `\u2029`
			default:
				i += size
				continue
			}
			b = append(append(b, s[done:i]...), esc...)
			i += size
			done = i
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(b, s[done:i]...)
		switch c {
		case '"', '\\':
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
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		i++
		done = i
	}
	return append(append(b, s[done:]...), '"')
}
