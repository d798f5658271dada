// Package wirejson is the lean layer both wire protocols share — VXDP
// between client and mediator, LXP between buffer and wrapper. It holds
// what their hand-rolled codecs have in common:
//
//   - string encoding (Safe, AppendString): the encoders must emit
//     exactly the bytes encoding/json would, so both escape strings the
//     same way, here;
//   - scalar scanners (PlainString, Unquote, PlainUint, PlainInt32,
//     PlainBool) that read the tokens of the canonical form the
//     encoders write, each accepting a token only where json.Unmarshal
//     decodes it to the same value;
//   - framing (Frame, Send, ReadFrame): length-prefixed frames checked
//     against the caller's limit, assembled and read in one set of
//     pooled buffers;
//   - the connection lifecycle (Lifecycle): how both servers — mixd's
//     and the wrappers' — accept, track, drain and force-close their
//     connections.
//
// Both decoders follow one rule: a payload in the canonical shape the
// encoder writes is parsed by hand with these scanners, and any other
// payload goes to encoding/json whole, which stays the protocols'
// definition.
package wirejson

import "encoding/json"

// Safe reports whether s needs no escaping under encoding/json's
// default (HTML-escaping) encoder.
func Safe(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// AppendString appends the JSON encoding of s to dst: a raw copy for
// plain ASCII, encoding/json for anything that needs escaping, so the
// output matches json.Marshal byte for byte.
func AppendString(dst []byte, s string) []byte {
	if Safe(s) {
		dst = append(dst, '"')
		dst = append(dst, s...)
		return append(dst, '"')
	}
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		b = []byte(`""`)
	}
	return append(dst, b...)
}
