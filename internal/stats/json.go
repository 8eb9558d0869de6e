package stats

import (
	"sort"
	"strconv"

	"ascoma/internal/jsonenc"
)

// JSONReport is a flattened, name-keyed view of a run's statistics for
// machine consumption (cmd/ascoma-sim -json, the serve and job result
// bodies). The category arrays become maps keyed by the paper's labels so
// downstream tooling does not depend on enum ordering.
//
// Results are encoded by AppendReport, never by reflecting over this
// type; it is the schema clients decode into and the oracle the encoder
// is tested against.
type JSONReport struct {
	Arch     string `json:"arch"`
	Workload string `json:"workload"`
	Pressure int    `json:"pressurePct"`
	// ExecTime is the parallel-phase execution time in cycles.
	ExecTime int64 `json:"execTimeCycles"`

	Time     map[string]int64 `json:"timeCycles"`
	Misses   map[string]int64 `json:"misses"`
	Counters map[string]int64 `json:"counters"`

	Nodes []JSONNode `json:"nodes"`
}

// JSONNode is one node's statistics.
type JSONNode struct {
	Finish   int64            `json:"finishCycles"`
	Time     map[string]int64 `json:"timeCycles"`
	Misses   map[string]int64 `json:"misses"`
	Counters map[string]int64 `json:"counters"`
}

// numCounters is the number of Node's scalar counters in the report.
const numCounters = 16

// counterNames keys Node's scalar counters in the report, in the order
// counterValues returns them.
var counterNames = [numCounters]string{
	"sharedRefs", "privateRefs", "l1Hits", "pageFaults", "upgrades",
	"downgrades", "migrations", "inducedCold", "daemonRuns", "daemonScanned",
	"daemonReclaimed", "thrashEvents", "relocDenied", "invalidations",
	"writebacks", "remotePagesSeen",
}

// counterValues lists a node's scalar counters in counterNames order. It
// is the serialization point the statsintegrity analyzer checks Node's
// counter fields against: a counter missing here never reaches the report.
//
//ascoma:stats-serialize
func counterValues(n *Node) [numCounters]int64 {
	return [numCounters]int64{
		n.SharedRefs, n.PrivateRefs, n.L1Hits, n.PageFaults, n.Upgrades,
		n.Downgrades, n.Migrations, n.InducedCold, n.DaemonRuns, n.DaemonScanned,
		n.DaemonReclaimed, n.ThrashEvents, n.RelocDenied, n.Invalidations,
		n.Writebacks, n.RemotePagesSeen,
	}
}

// The machine-level counters: every node counter summed, then these two.
const (
	remotePagesIdx = numCounters + iota
	relocatedPagesIdx
	numMachineCounters
)

// mapKey is one map entry of the report in encoding/json's order: the
// value's index in its source array and the quoted key with its colon.
type mapKey struct {
	idx    int
	quoted string
}

// sortedKeys orders a label table the way encoding/json orders map keys
// (bytewise), so AppendReport walks arrays and still writes sorted maps.
func sortedKeys(names []string) []mapKey {
	keys := make([]mapKey, len(names))
	for i, name := range names {
		keys[i] = mapKey{i, string(jsonenc.AppendString(nil, name)) + ":"}
	}
	sort.Slice(keys, func(i, j int) bool { return names[keys[i].idx] < names[keys[j].idx] })
	return keys
}

var (
	timeKeys           = sortedKeys(timeCatNames[:])
	missKeys           = sortedKeys(missCatNames[:])
	counterKeys        = sortedKeys(counterNames[:])
	machineCounterKeys = sortedKeys(append(counterNames[:numCounters:numCounters], "remotePages", "relocatedPages"))
)

func labelMap(names []string, vals []int64) map[string]int64 {
	out := make(map[string]int64, len(names))
	for i, name := range names {
		out[name] = vals[i]
	}
	return out
}

// Report builds the JSON view of a finished run as maps: the decoded form
// of AppendReport's output, kept as its test oracle.
func Report(m *Machine) JSONReport {
	sumTime, sumMisses := m.SumTime(), m.SumMisses()
	r := JSONReport{
		Arch:     m.Arch,
		Workload: m.Workload,
		Pressure: m.Pressure,
		ExecTime: m.ExecTime,
		Time:     labelMap(timeCatNames[:], sumTime[:]),
		Misses:   labelMap(missCatNames[:], sumMisses[:]),
		Counters: map[string]int64{
			"remotePages":    m.RemotePages,
			"relocatedPages": m.RelocatedPages,
		},
	}
	var agg [numCounters]int64
	for i := range m.Nodes {
		n := &m.Nodes[i]
		c := counterValues(n)
		r.Nodes = append(r.Nodes, JSONNode{
			Finish:   n.FinishTime,
			Time:     labelMap(timeCatNames[:], n.Time[:]),
			Misses:   labelMap(missCatNames[:], n.Misses[:]),
			Counters: labelMap(counterNames[:], c[:]),
		})
		for k, v := range c {
			agg[k] += v
		}
	}
	for k, name := range counterNames {
		r.Counters[name] = agg[k]
	}
	return r
}

// AppendReport appends the JSON encoding of Report(m) to dst: exactly the
// bytes encoding/json writes for it (struct fields in order, map keys
// sorted, HTML-safe strings), without building the maps or reflecting.
// Every result body the simulator serves goes through it;
// TestReportBytesMatchEncodingJSON holds it to encoding/json across the
// golden matrix.
//
//ascoma:stats-serialize
func AppendReport(dst []byte, m *Machine) []byte {
	dst = jsonenc.AppendString(append(dst, `{"arch":`...), m.Arch)
	dst = jsonenc.AppendString(append(dst, `,"workload":`...), m.Workload)
	dst = strconv.AppendInt(append(dst, `,"pressurePct":`...), int64(m.Pressure), 10)
	dst = strconv.AppendInt(append(dst, `,"execTimeCycles":`...), m.ExecTime, 10)
	sumTime, sumMisses := m.SumTime(), m.SumMisses()
	dst = appendMap(append(dst, `,"timeCycles":`...), timeKeys, sumTime[:])
	dst = appendMap(append(dst, `,"misses":`...), missKeys, sumMisses[:])

	var agg [numMachineCounters]int64
	for i := range m.Nodes {
		for k, v := range counterValues(&m.Nodes[i]) {
			agg[k] += v
		}
	}
	agg[remotePagesIdx], agg[relocatedPagesIdx] = m.RemotePages, m.RelocatedPages
	dst = appendMap(append(dst, `,"counters":`...), machineCounterKeys, agg[:])

	if len(m.Nodes) == 0 {
		return append(dst, `,"nodes":null}`...)
	}
	for i := range m.Nodes {
		n := &m.Nodes[i]
		sep := `,{"finishCycles":`
		if i == 0 {
			sep = `,"nodes":[{"finishCycles":`
		}
		dst = strconv.AppendInt(append(dst, sep...), n.FinishTime, 10)
		dst = appendMap(append(dst, `,"timeCycles":`...), timeKeys, n.Time[:])
		dst = appendMap(append(dst, `,"misses":`...), missKeys, n.Misses[:])
		c := counterValues(n)
		dst = appendMap(append(dst, `,"counters":`...), counterKeys, c[:])
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendMap writes vals as a JSON object in keys' order.
func appendMap(dst []byte, keys []mapKey, vals []int64) []byte {
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, k.quoted...), vals[k.idx], 10)
	}
	return append(dst, '}')
}
