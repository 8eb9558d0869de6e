package workload

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"ascoma/internal/addr"
)

// Trace is a fully materialized workload: the page placement plus every
// node's reference sequence. Traces make runs exactly reproducible across
// generator changes, allow diffing reference streams, and let external
// traces drive the simulator. The encoding is a line-oriented text format:
//
//	trace <nodes> <homePages> <privPages> <name>
//	place <page> <home>            (one per placed page)
//	node <i> <refCount>
//	r|w|b <addr> <think>           (refCount lines per node)
type Trace struct {
	TraceName string
	NumNodes  int
	HomePages int
	PrivPages int
	Placement map[addr.Page]int
	Refs      [][]Ref
}

// Record materializes a generator into a Trace.
func Record(g Generator) *Trace {
	t := &Trace{
		TraceName: g.Name() + "-trace",
		NumNodes:  g.Nodes(),
		HomePages: g.HomePagesPerNode(),
		PrivPages: g.PrivatePagesPerNode(),
		Placement: make(map[addr.Page]int),
		Refs:      make([][]Ref, g.Nodes()),
	}
	g.Place(func(p addr.Page, home int) { t.Placement[p] = home })
	for n := 0; n < g.Nodes(); n++ {
		s := g.Stream(n)
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			t.Refs[n] = append(t.Refs[n], r)
		}
	}
	return t
}

// Trace satisfies Generator, replaying the recorded references.

// Name returns the trace name.
func (t *Trace) Name() string { return t.TraceName }

// Nodes returns the recorded node count.
func (t *Trace) Nodes() int { return t.NumNodes }

// HomePagesPerNode returns the recorded home footprint.
func (t *Trace) HomePagesPerNode() int { return t.HomePages }

// PrivatePagesPerNode returns the recorded private footprint.
func (t *Trace) PrivatePagesPerNode() int { return t.PrivPages }

// Place replays the recorded placement in ascending page order. Placement
// order is observable — the VM hands out physical frames in allocation
// order — so iterating the map directly would make frame assignment (and
// every downstream conflict pattern) vary run to run.
func (t *Trace) Place(place func(p addr.Page, home int)) {
	for _, p := range t.sortedPages() {
		place(p, t.Placement[p])
	}
}

// sortedPages returns the placed pages in ascending order.
func (t *Trace) sortedPages() []addr.Page {
	pages := make([]addr.Page, 0, len(t.Placement))
	//ascoma:allow-nondet keys are collected and sorted before use
	for p := range t.Placement {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	return pages
}

// Stream replays node i's recorded references.
func (t *Trace) Stream(node int) Stream {
	return &traceStream{refs: t.Refs[node]}
}

type traceStream struct {
	refs []Ref
	i    int
}

func (s *traceStream) Next() (Ref, bool) {
	if s.i >= len(s.refs) {
		return Ref{}, false
	}
	r := s.refs[s.i]
	s.i++
	return r, true
}

var opCode = map[Op]byte{Read: 'r', Write: 'w', Barrier: 'b', Lock: 'l', Unlock: 'u'}

// Encode writes the trace in the text format.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "trace %d %d %d %s\n", t.NumNodes, t.HomePages, t.PrivPages, t.TraceName)
	// Encode placement in sorted page order so the same trace always
	// serializes to the same bytes.
	for _, p := range t.sortedPages() {
		fmt.Fprintf(bw, "place %d %d\n", uint64(p), t.Placement[p])
	}
	for n, refs := range t.Refs {
		fmt.Fprintf(bw, "node %d %d\n", n, len(refs))
		for _, r := range refs {
			fmt.Fprintf(bw, "%c %d %d\n", opCode[r.Op], uint64(r.Addr), r.Think)
		}
	}
	return bw.Flush()
}

// Decode parses a trace written by Encode. It reads outside input, so it
// trusts no count the input declares: a node section's reference count is
// only checked against the references actually present, never used to
// size an allocation, and a section that ends short of it is an error.
func Decode(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	t := &Trace{Placement: make(map[addr.Page]int)}
	var name string
	if _, err := fmt.Fscanf(br, "trace %d %d %d %s\n", &t.NumNodes, &t.HomePages, &t.PrivPages, &name); err != nil {
		return nil, fmt.Errorf("workload: bad trace header: %w", err)
	}
	t.TraceName = name
	if t.NumNodes < 1 || t.NumNodes > 64 {
		return nil, fmt.Errorf("workload: trace node count %d out of range", t.NumNodes)
	}
	t.Refs = make([][]Ref, t.NumNodes)
	seen := make([]bool, t.NumNodes)
	cur := -1
	remaining := 0
	// endSection rejects a node section that ended before its declared
	// reference count.
	endSection := func() error {
		if remaining > 0 {
			return fmt.Errorf("workload: node %d section ends %d refs short of its declared count", cur, remaining)
		}
		return nil
	}
	for {
		prefix, err := br.ReadString(' ')
		if err == io.EOF {
			if strings.TrimSpace(prefix) != "" {
				return nil, fmt.Errorf("workload: truncated trace line %q", prefix)
			}
			break
		}
		if err != nil {
			return nil, err
		}
		switch prefix {
		case "place ":
			var pg uint64
			var home int
			if _, err := fmt.Fscanf(br, "%d %d\n", &pg, &home); err != nil {
				return nil, fmt.Errorf("workload: bad place line: %w", err)
			}
			if home < 0 || home >= t.NumNodes {
				return nil, fmt.Errorf("workload: placement home %d out of range", home)
			}
			t.Placement[addr.Page(pg)] = home
		case "node ":
			if err := endSection(); err != nil {
				return nil, err
			}
			var count int
			if _, err := fmt.Fscanf(br, "%d %d\n", &cur, &count); err != nil {
				return nil, fmt.Errorf("workload: bad node line: %w", err)
			}
			if cur < 0 || cur >= t.NumNodes {
				return nil, fmt.Errorf("workload: node %d out of range", cur)
			}
			if count < 0 {
				return nil, fmt.Errorf("workload: node %d declares negative ref count %d", cur, count)
			}
			if seen[cur] {
				return nil, fmt.Errorf("workload: node %d section appears twice", cur)
			}
			seen[cur] = true
			remaining = count
		case "r ", "w ", "b ", "l ", "u ":
			if cur < 0 || remaining == 0 {
				return nil, fmt.Errorf("workload: reference outside a node section")
			}
			var a uint64
			var think int32
			if _, err := fmt.Fscanf(br, "%d %d\n", &a, &think); err != nil {
				return nil, fmt.Errorf("workload: bad ref line: %w", err)
			}
			op := Read
			switch prefix[0] {
			case 'w':
				op = Write
			case 'b':
				op = Barrier
			case 'l':
				op = Lock
			case 'u':
				op = Unlock
			}
			t.Refs[cur] = append(t.Refs[cur], Ref{Addr: addr.GVA(a), Op: op, Think: think})
			remaining--
		default:
			return nil, fmt.Errorf("workload: unknown trace line prefix %q", prefix)
		}
	}
	if err := endSection(); err != nil {
		return nil, err
	}
	return t, nil
}
