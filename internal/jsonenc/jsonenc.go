// Package jsonenc holds the one primitive the hand-written JSON appenders
// share (runcache's key preimage, stats' report, jobs' result bodies):
// appending a string exactly as encoding/json encodes it.
package jsonenc

import "encoding/json"

// AppendString appends s as a JSON string, byte-identical to
// json.Marshal(s): HTML-safe (<, > and & escaped), control characters
// escaped, invalid UTF-8 replaced. Plain printable ASCII — every label,
// architecture and workload name the simulator emits — is copied
// directly; anything else takes encoding/json itself, so the two can
// never disagree.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) //ascoma:allow-errdrop a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
