package jsonenc

import (
	"encoding/json"
	"testing"
)

func FuzzAppendString(f *testing.F) {
	for _, s := range []string{"", "radix", "CONF/CAPC", `a"b\c`, "<x>&y", "\x00\b\f\n\r\t\x1f\x7f", "naïve \u2028\u2029 \xff", "日本"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("AppendString(%q) = %s, want x%s", s, got, want)
		}
	})
}
