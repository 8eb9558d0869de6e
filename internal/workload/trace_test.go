package workload

import (
	"bytes"
	"strings"
	"testing"

	"ascoma/internal/addr"
)

func TestRecordMatchesGenerator(t *testing.T) {
	g, err := New("stream", 16)
	if err != nil {
		t.Fatal(err)
	}
	tr := Record(g)
	if tr.Nodes() != g.Nodes() || tr.HomePagesPerNode() != g.HomePagesPerNode() ||
		tr.PrivatePagesPerNode() != g.PrivatePagesPerNode() {
		t.Error("trace metadata differs from generator")
	}
	// Replay must equal a fresh stream.
	for n := 0; n < g.Nodes(); n++ {
		want := drain(g.Stream(n))
		got := drain(tr.Stream(n))
		if len(want) != len(got) {
			t.Fatalf("node %d: %d vs %d refs", n, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("node %d ref %d: %v vs %v", n, i, want[i], got[i])
			}
		}
	}
	// Placement replay covers the same pages.
	orig := map[addr.Page]int{}
	g.Place(func(p addr.Page, h int) { orig[p] = h })
	replayed := map[addr.Page]int{}
	tr.Place(func(p addr.Page, h int) { replayed[p] = h })
	if len(orig) != len(replayed) {
		t.Fatalf("placement sizes differ: %d vs %d", len(orig), len(replayed))
	}
	for p, h := range orig {
		if replayed[p] != h {
			t.Fatalf("page %v home %d vs %d", p, replayed[p], h)
		}
	}
}

func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	g, err := New("uniform", 32)
	if err != nil {
		t.Fatal(err)
	}
	tr := Record(g)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes != tr.NumNodes || back.TraceName != tr.TraceName {
		t.Error("header fields lost")
	}
	if len(back.Placement) != len(tr.Placement) {
		t.Errorf("placements: %d vs %d", len(back.Placement), len(tr.Placement))
	}
	for n := range tr.Refs {
		if len(back.Refs[n]) != len(tr.Refs[n]) {
			t.Fatalf("node %d refs: %d vs %d", n, len(back.Refs[n]), len(tr.Refs[n]))
		}
		for i := range tr.Refs[n] {
			if back.Refs[n][i] != tr.Refs[n][i] {
				t.Fatalf("node %d ref %d: %v vs %v", n, i, back.Refs[n][i], tr.Refs[n][i])
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"bad header":      "nonsense\n",
		"bad node count":  "trace 999 1 1 x\n",
		"ref outside":     "trace 2 1 1 x\nr 100 0\n",
		"home range":      "trace 2 1 1 x\nplace 5 7\n",
		"node range":      "trace 2 1 1 x\nnode 9 1\n",
		"unknown prefix":  "trace 2 1 1 x\nzz 1 2\n",
		"truncated place": "trace 2 1 1 x\nplace zilch\n",
		"duplicate node":  "trace 2 1 1 x\nnode 0 0\nnode 0 0\n",
		"truncated line":  "trace 2 1 1 x\nnode 0 0\nnode",
	}
	for name, in := range cases {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Decode accepted %q", name, in)
		}
	}
}

// untrustedCountInputs are traces whose node sections declare reference
// counts the file does not back: negative, far beyond the data, and short
// by a few. Each must be rejected with an error, without a panic and
// without allocating the claimed count.
var untrustedCountInputs = []struct{ name, in string }{
	{"negative count", "trace 2 4 4 t\nnode 0 -1\n"},
	{"huge count", "trace 2 4 4 t\nnode 0 2000000000\nr 100 0\n"},
	{"short section", "trace 2 4 4 t\nnode 0 5\nr 100 0\n"},
}

func TestDecodeRejectsUntrustedCounts(t *testing.T) {
	for _, c := range untrustedCountInputs {
		t.Run(c.name, func(t *testing.T) {
			if tr, err := Decode(strings.NewReader(c.in)); err == nil {
				t.Fatalf("Decode accepted %q as %d node-0 refs", c.in, len(tr.Refs[0]))
			}
		})
	}
}

func TestTraceOpEncoding(t *testing.T) {
	tr := &Trace{
		TraceName: "t", NumNodes: 1, HomePages: 1, PrivPages: 0,
		Placement: map[addr.Page]int{addr.PageOf(addr.SharedBase): 0},
		Refs: [][]Ref{{
			{Addr: addr.SharedBase, Op: Read, Think: 3},
			{Addr: addr.SharedBase + 32, Op: Write, Think: 0},
			{Addr: 1, Op: Barrier},
		}},
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{Read, Write, Barrier}
	for i, want := range ops {
		if back.Refs[0][i].Op != want {
			t.Errorf("ref %d op = %v, want %v", i, back.Refs[0][i].Op, want)
		}
	}
	if back.Refs[0][0].Think != 3 {
		t.Error("think lost")
	}
}
