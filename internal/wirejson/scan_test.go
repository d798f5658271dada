package wirejson

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"
)

// FuzzScanners holds every scanner to json.Unmarshal on the same
// token: what a scanner accepts, json.Unmarshal decodes to the same
// value; Unquote accepts every string json.Unmarshal accepts; and the
// number and bool scanners accept every token in canonical form.
func FuzzScanners(f *testing.F) {
	for _, seed := range []string{
		`"plain"`, `""`, `"AT&T"`, `"é"`, `"😀"`, `"\ud83d\ude00"`, `"\u00ff\u00FF"`, `"\ud83d"`,
		`"\ud83dx"`, `"\ud83dA"`, `"\udc00\ud83d"`, "\"\xff\xfe\"", "\"\xed\xa0\x80\"",
		`"a\"b\\c"`, `"\/\b\f\n\r\t"`, `"\x"`, `"\u12"`, `"\uZZZZ"`, "\"\x01\"", "\"\x1f\"", "\"\x7f\"", `"trunc`, `"a\`,
		`"a" `, `0`, `7`, `18446744073709551615`, `18446744073709551616`, `-2147483648`,
		`2147483647`, `2147483648`, `-0`, `007`, `1e2`, `1.0`, `true`, `false`, `tru`, `null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		// Strings.
		got, end, ok := Unquote(nil, p, 0)
		if ok {
			var want string
			if err := json.Unmarshal(p[:end], &want); err != nil || want != string(got) {
				t.Fatalf("Unquote(%q) = %q, json.Unmarshal = %q, %v", p[:end], got, want, err)
			}
		} else if s := ""; len(p) > 0 && p[0] == '"' && json.Unmarshal(p, &s) == nil {
			t.Fatalf("Unquote refuses %q, json.Unmarshal takes it as %q", p, s)
		}
		if plain, pend, ok := PlainString(p, 0); ok && (pend != end || !bytes.Equal(plain, got)) {
			t.Fatalf("PlainString(%q) = %q/%d, Unquote = %q/%d", p, plain, pend, got, end)
		}

		// uint64.
		if n, end, ok := PlainUint(p, 0); ok {
			var want uint64
			if err := json.Unmarshal(p[:end], &want); err != nil || want != n {
				t.Fatalf("PlainUint(%q) = %d, json.Unmarshal = %d, %v", p[:end], n, want, err)
			}
		} else if u := uint64(0); json.Unmarshal(p, &u) == nil && string(p) == strconv.FormatUint(u, 10) {
			t.Fatalf("PlainUint refuses canonical %q", p)
		}

		// int32.
		if n, end, ok := PlainInt32(p, 0); ok {
			var want int32
			if err := json.Unmarshal(p[:end], &want); err != nil || want != n {
				t.Fatalf("PlainInt32(%q) = %d, json.Unmarshal = %d, %v", p[:end], n, want, err)
			}
		} else if n := int32(0); json.Unmarshal(p, &n) == nil && string(p) == strconv.FormatInt(int64(n), 10) {
			t.Fatalf("PlainInt32 refuses canonical %q", p)
		}

		// bool.
		if b, end, ok := PlainBool(p, 0); ok {
			var want bool
			if err := json.Unmarshal(p[:end], &want); err != nil || want != b {
				t.Fatalf("PlainBool(%q) = %v, json.Unmarshal = %v, %v", p[:end], b, want, err)
			}
		} else if b := false; json.Unmarshal(p, &b) == nil && string(p) == strconv.FormatBool(b) {
			t.Fatalf("PlainBool refuses canonical %q", p)
		}
	})
}
