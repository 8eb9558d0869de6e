package stats

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestCategoryNames(t *testing.T) {
	wantTime := []string{"U-SH-MEM", "K-BASE", "K-OVERHD", "U-INSTR", "U-LC-MEM", "SYNC"}
	for c := TimeCat(0); c < NumTimeCats; c++ {
		if c.String() != wantTime[c] {
			t.Errorf("TimeCat %d = %q, want %q", c, c.String(), wantTime[c])
		}
	}
	wantMiss := []string{"HOME", "SCOMA", "RAC", "COLD", "CONF/CAPC"}
	for c := MissCat(0); c < NumMissCats; c++ {
		if c.String() != wantMiss[c] {
			t.Errorf("MissCat %d = %q, want %q", c, c.String(), wantMiss[c])
		}
	}
	if !strings.Contains(TimeCat(99).String(), "99") || !strings.Contains(MissCat(99).String(), "99") {
		t.Error("out-of-range category names")
	}
}

func TestNodeTotals(t *testing.T) {
	var n Node
	n.Time[UShMem] = 100
	n.Time[Sync] = 50
	n.Misses[Home] = 3
	n.Misses[ConfCapc] = 4
	if n.TotalTime() != 150 {
		t.Errorf("TotalTime = %d", n.TotalTime())
	}
	if n.TotalMisses() != 7 {
		t.Errorf("TotalMisses = %d", n.TotalMisses())
	}
}

func TestMachineAggregation(t *testing.T) {
	m := NewMachine(3)
	for i := range m.Nodes {
		m.Nodes[i].Time[KOverhead] = int64(i + 1)
		m.Nodes[i].Misses[Cold] = 2
		m.Nodes[i].Misses[ConfCapc] = 3
		m.Nodes[i].Upgrades = 5
	}
	if got := m.SumTime()[KOverhead]; got != 6 {
		t.Errorf("SumTime = %d", got)
	}
	if got := m.SumMisses()[Cold]; got != 6 {
		t.Errorf("SumMisses = %d", got)
	}
	if got := m.RemoteMisses(); got != 15 {
		t.Errorf("RemoteMisses = %d", got)
	}
	if got := m.Counter(func(n *Node) int64 { return n.Upgrades }); got != 15 {
		t.Errorf("Counter = %d", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.AddRow("alpha", 1)
	tb.AddRow("b", 234567)
	s := tb.String()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "234567") {
		t.Errorf("table output missing cells:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want header+rule+2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[1], "-") {
		t.Error("missing separator rule")
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Header: []string{"a", "b"}}
	tb.AddRow(1, 2)
	want := "a,b\n1,2\n"
	if got := tb.CSV(); got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestBreakdownRow(t *testing.T) {
	m := NewMachine(2)
	m.Nodes[0].Time[UShMem] = 75
	m.Nodes[1].Time[UInstr] = 25
	row := BreakdownRow(m, 100)
	if row[UShMem] != 0.75 || row[UInstr] != 0.25 {
		t.Errorf("row = %v", row)
	}
	if got := BreakdownRow(m, 0); got[UShMem] != 0 {
		t.Error("zero base not handled")
	}
}

func TestSortedPercent(t *testing.T) {
	s := SortedPercent(map[string]int64{"x": 75, "y": 25})
	if !strings.HasPrefix(s, "x 75.0%") {
		t.Errorf("SortedPercent = %q", s)
	}
	if SortedPercent(nil) != "" {
		t.Error("empty map output")
	}
}

func TestJSONReport(t *testing.T) {
	m := NewMachine(2)
	m.Arch, m.Workload, m.Pressure, m.ExecTime = "AS-COMA", "radix", 70, 1234
	m.Nodes[0].Time[UShMem] = 100
	m.Nodes[0].Misses[Cold] = 7
	m.Nodes[0].Upgrades = 3
	m.Nodes[1].Upgrades = 4
	m.RemotePages = 9

	r := Report(m)
	if r.Arch != "AS-COMA" || r.ExecTime != 1234 {
		t.Error("header fields lost")
	}
	if r.Time["U-SH-MEM"] != 100 {
		t.Errorf("time map: %v", r.Time)
	}
	if r.Misses["COLD"] != 7 {
		t.Errorf("miss map: %v", r.Misses)
	}
	if r.Counters["upgrades"] != 7 {
		t.Errorf("counter aggregation: %v", r.Counters["upgrades"])
	}
	if r.Counters["remotePages"] != 9 {
		t.Error("machine counters missing")
	}
	if len(r.Nodes) != 2 || r.Nodes[0].Counters["upgrades"] != 3 {
		t.Error("per-node view wrong")
	}
}

// TestAppendReportMatchesEncodingJSON holds the hand-written encoder to
// encoding/json over the Report oracle on synthetic machines, including
// the node-less edge and names that need escaping.
func TestAppendReportMatchesEncodingJSON(t *testing.T) {
	full := NewMachine(3)
	full.Arch, full.Workload, full.Pressure, full.ExecTime = "AS-COMA", "radix", 70, 1234
	full.RemotePages, full.RelocatedPages = 9, -2
	for i := range full.Nodes {
		n := &full.Nodes[i]
		n.FinishTime = int64(1000 + i)
		for c := range n.Time {
			n.Time[c] = int64(i*10 + c + 1)
		}
		for c := range n.Misses {
			n.Misses[c] = int64(i*100 + c)
		}
		n.SharedRefs, n.Upgrades, n.RemotePagesSeen, n.Writebacks = int64(i), 3, 1<<40, -7
	}
	escaped := NewMachine(1)
	escaped.Arch, escaped.Workload = `<b>&"x"`, "naïve\n \xff"
	for _, m := range []*Machine{full, escaped, {}, NewMachine(0)} {
		want, err := json.Marshal(Report(m))
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendReport([]byte("prefix"), m); string(got) != "prefix"+string(want) {
			t.Errorf("AppendReport differs from encoding/json:\ngot  %s\nwant prefix%s", got, want)
		}
	}
}
