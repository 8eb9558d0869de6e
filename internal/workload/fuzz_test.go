package workload

import (
	"bytes"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ascoma/internal/addr"
)

// drainMatch drains the compiled stream and the interpreted reference over
// the same program and requires ref-for-ref identity.
func drainMatch(t *testing.T, label string, p *Program) {
	t.Helper()
	want := p.Interpreted()
	got := p.Stream()
	var i int64
	for {
		wr, wok := want.Next()
		gr, gok := got.Next()
		if wok != gok {
			t.Fatalf("%s ref %d: interpreted ok=%v, compiled ok=%v", label, i, wok, gok)
		}
		if !wok {
			break
		}
		if wr != gr {
			t.Fatalf("%s ref %d: interpreted %+v, compiled %+v", label, i, wr, gr)
		}
		i++
	}
	Recycle(got)
}

// FuzzCompiledMatchesInterpreted is the differential check behind the
// golden harness, driven by fuzzed inputs instead of the fixed test grid:
// for any registered workload at any scale, and for any raw scatter/walk
// program built from fuzzed geometry and seed, the compiled chunk stream
// must replay exactly the interpreted reference.
func FuzzCompiledMatchesInterpreted(f *testing.F) {
	names := Names()
	for i := range names {
		f.Add(uint8(i), uint8(16), uint64(0x9e3779b97f4a7c15), uint16(i), int64(64*1024), int64(64), int64(300))
	}
	// A degenerate-geometry seed: stride > span, tiny scatter.
	f.Add(uint8(0), uint8(255), uint64(1), uint16(255), int64(128), int64(4096), int64(1))

	f.Fuzz(func(t *testing.T, nameIdx, scaleRaw uint8, seed uint64, nodeRaw uint16, bytes, stride, count int64) {
		// Registered workload: name and node wrap around the registry, and
		// scale is clamped to the cheap end (scale divides the dataset, so
		// small scales are the expensive full-size runs).
		name := names[int(nameIdx)%len(names)]
		scale := 8 + int(scaleRaw)%57
		g, err := New(name, scale)
		if err != nil {
			t.Fatalf("New(%s, %d): %v", name, scale, err)
		}
		src, ok := g.(programSource)
		if !ok {
			t.Fatalf("%s: generator %T does not expose programs", name, g)
		}
		node := int(nodeRaw) % g.Nodes()
		drainMatch(t, name, src.nodeProgram(node))

		// Raw program: fuzzed geometry and seed go straight into the
		// builders, which clamp invalid shapes to no-ops themselves.
		bytes %= 256 * 1024
		stride %= 8 * 1024
		count %= 4096
		p := &Program{}
		p.Scatter(addr.SharedBase, bytes, stride, count, Write, 1, seed)
		p.WalkRW(addr.SharedBase, bytes, stride, 2, 3, 1)
		p.Barrier(1)
		p.ScatterRuns(addr.SharedBase, bytes, stride, count, 7, 2, 1, seed^0xdeadbeef)
		drainMatch(t, "raw", p)
	})
}

// FuzzDecodeTrace feeds the reference-trace decoder arbitrary bytes. Decode
// must never panic; every node section of a trace it accepts must hold
// exactly the reference count its node line declares; and every accepted
// trace must survive an Encode→Decode round trip unchanged.
func FuzzDecodeTrace(f *testing.F) {
	for _, c := range untrustedCountInputs {
		f.Add([]byte(c.in))
	}
	valid := &Trace{
		TraceName: "seed", NumNodes: 2, HomePages: 1, PrivPages: 1,
		Placement: map[addr.Page]int{addr.PageOf(addr.SharedBase): 1},
		Refs: [][]Ref{
			{{Addr: addr.SharedBase, Op: Read, Think: 3}, {Addr: 1, Op: Lock}, {Addr: 1, Op: Unlock}},
			{{Addr: addr.SharedBase + 32, Op: Write, Think: -1}, {Addr: 1, Op: Barrier}},
		},
	}
	var buf bytes.Buffer
	if err := valid.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := Decode(bytes.NewReader(in))
		if err != nil {
			return
		}
		for _, line := range strings.Split(string(in), "\n") {
			f := strings.Fields(line)
			if len(f) != 3 || f[0] != "node" {
				continue
			}
			n, nerr := strconv.Atoi(f[1])
			count, cerr := strconv.Atoi(f[2])
			if nerr == nil && cerr == nil && n >= 0 && n < len(tr.Refs) && len(tr.Refs[n]) != count {
				t.Fatalf("node %d declares %d refs, decoded %d", n, count, len(tr.Refs[n]))
			}
		}
		var enc bytes.Buffer
		if err := tr.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		back, err := Decode(&enc)
		if err != nil {
			t.Fatalf("re-decoding an accepted trace: %v\n%s", err, enc.Bytes())
		}
		if back.TraceName != tr.TraceName || back.NumNodes != tr.NumNodes ||
			back.HomePages != tr.HomePages || back.PrivPages != tr.PrivPages {
			t.Fatalf("header changed: %+v -> %+v", *tr, *back)
		}
		if !maps.Equal(back.Placement, tr.Placement) {
			t.Fatalf("placement changed: %v -> %v", tr.Placement, back.Placement)
		}
		for n := range tr.Refs {
			if !slices.Equal(back.Refs[n], tr.Refs[n]) {
				t.Fatalf("node %d refs changed: %v -> %v", n, tr.Refs[n], back.Refs[n])
			}
		}
	})
}
