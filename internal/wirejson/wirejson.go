// Package wirejson is the string half of the hand-rolled JSON encoders
// on the wire (the lean LXP fill codec and the VXDP navigation-frame
// codec): both must emit exactly the bytes encoding/json would, so both
// escape strings the same way, here.
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
