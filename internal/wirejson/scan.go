package wirejson

import (
	"bytes"
	"math"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Each scanner reads one token at p[i] and returns its value, the index
// after it and whether it accepted the token; on refusal the index is
// i. Whatever a scanner accepts, json.Unmarshal decodes to the same
// value into the matching Go type.

// PlainString scans a string token made only of printable ASCII other
// than '"' and '\\' — bytes json.Unmarshal takes verbatim — and returns
// its contents, aliasing p.
func PlainString(p []byte, i int) ([]byte, int, bool) {
	if i >= len(p) || p[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(p); j++ {
		switch c := p[j]; {
		case c == '"':
			return p[i+1 : j], j + 1, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, i, false
		}
	}
	return nil, i, false
}

// Unquote scans any string token and appends its contents to dst,
// decoded as json.Unmarshal decodes them: escapes resolved, a lone or
// broken surrogate escape and every byte of invalid UTF-8 replaced by
// U+FFFD. It refuses the tokens json.Unmarshal rejects: raw control
// bytes, unknown escapes, a truncated token.
func Unquote(dst, p []byte, i int) ([]byte, int, bool) {
	if i >= len(p) || p[i] != '"' {
		return dst, i, false
	}
	for j := i + 1; j < len(p); {
		switch c := p[j]; {
		case c == '"':
			return dst, j + 1, true
		case c < 0x20:
			return dst, i, false
		case c < utf8.RuneSelf && c != '\\':
			dst = append(dst, c)
			j++
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(p[j:])
			dst = utf8.AppendRune(dst, r)
			j += n
		case j+1 >= len(p):
			return dst, i, false
		default: // an escape
			e := p[j+1]
			if k := strings.IndexByte(`"\/bfnrt`, e); k >= 0 {
				dst = append(dst, "\"\\/\b\f\n\r\t"[k])
				j += 2
				continue
			}
			r, ok := hex4(p, j)
			if !ok {
				return dst, i, false
			}
			j += 6
			// A surrogate pair takes the next escape too; AppendRune
			// writes a lone surrogate as U+FFFD.
			r2, _ := hex4(p, j)
			if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
				r, j = dec, j+6
			}
			dst = utf8.AppendRune(dst, r)
		}
	}
	return dst, i, false
}

// hex4 reads the escape \uXXXX at p[j].
func hex4(p []byte, j int) (rune, bool) {
	if j+6 > len(p) || p[j] != '\\' || p[j+1] != 'u' {
		return 0, false
	}
	var r rune
	for _, c := range p[j+2 : j+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// PlainUint scans a canonical decimal uint64: no sign, fraction,
// exponent, leading zero or overflow.
func PlainUint(p []byte, i int) (uint64, int, bool) {
	start := i
	var n uint64
	for ; i < len(p) && p[i] >= '0' && p[i] <= '9'; i++ {
		d := uint64(p[i] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, start, false
		}
		n = n*10 + d
	}
	if i == start || (i-start > 1 && p[start] == '0') {
		return 0, start, false
	}
	return n, i, true
}

// PlainInt32 scans a canonical decimal int32: an optional minus sign,
// no fraction, exponent, leading zero, negative zero or overflow.
func PlainInt32(p []byte, i int) (int32, int, bool) {
	neg := i < len(p) && p[i] == '-'
	j := i
	if neg {
		j++
	}
	u, k, ok := PlainUint(p, j)
	if !ok || (neg && u == 0) || u > math.MaxInt32+1 || (!neg && u > math.MaxInt32) {
		return 0, i, false
	}
	if neg {
		return int32(-int64(u)), k, true
	}
	return int32(u), k, true
}

// PlainBool scans a true or false literal.
func PlainBool(p []byte, i int) (bool, int, bool) {
	switch {
	case bytes.HasPrefix(p[i:], []byte("true")):
		return true, i + 4, true
	case bytes.HasPrefix(p[i:], []byte("false")):
		return false, i + 5, true
	}
	return false, i, false
}
