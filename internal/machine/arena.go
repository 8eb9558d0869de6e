// The machine arena: a sync.Pool-backed recycler for per-run machine state.
//
// A figure grid runs 45+ machines of identical shape back to back; before
// the arena, every cell rebuilt the dense page tables, directory chunks, L1
// arrays and event queue from scratch — construction allocations that PR 1's
// profiles showed rival the simulation itself at benchmark scale. Released
// machines park here keyed by their structural shape, and New reuses one by
// zeroing its tables in place (a memclr over retained chunks) instead of
// reallocating.
//
// Recycling is exact: every component exposes a Reset that restores its
// just-built state, including the event queue's deterministic tie-break
// sequence, so a recycled machine is bit-identical in behaviour to a fresh
// one — the golden-determinism matrix (which runs every config twice, the
// second time on recycled state) holds it to that.
package machine

import (
	"sync"

	"ascoma/internal/bus"
	"ascoma/internal/cache"
	"ascoma/internal/directory"
	"ascoma/internal/mem"
	"ascoma/internal/params"
	"ascoma/internal/vm"
	"ascoma/internal/workload"
)

// shape is the structural identity of a machine's recyclable state: two
// machines with the same shape differ only in per-run parameters that Reset
// and Reconfigure reapply.
type shape struct {
	nodes      int
	l1Bytes    int
	racEntries int
	memBanks   int
	totalPages int
	homeLimit  int    // directory home-allocation cap (home pages per node)
	tierSig    string // memory-tier configuration signature (mem.SigOf; "" = flat)
}

// arena maps shape -> *sync.Pool of released *Machine. sync.Pool gives
// per-P caching for concurrent grid runners and lets the GC drop pooled
// machines under memory pressure.
var arena sync.Map

func arenaGet(sh shape) *Machine {
	if p, ok := arena.Load(sh); ok {
		if m, _ := p.(*sync.Pool).Get().(*Machine); m != nil {
			return m
		}
	}
	return nil
}

func arenaPut(m *Machine) {
	p, _ := arena.LoadOrStore(m.shape, &sync.Pool{})
	p.(*sync.Pool).Put(m)
}

// newShaped allocates the structural state of a machine: nodes with their
// caches, VM and contention resources, plus the directory. Per-run fields
// (policies, stats, streams, network) are wired by New for fresh and
// recycled machines alike.
func newShaped(sh shape, p *params.Params, tiers []mem.TierSpec, pol mem.Policy) *Machine {
	m := &Machine{shape: sh}
	m.nodes = make([]*node, sh.nodes)
	for i := range m.nodes {
		m.nodes[i] = &node{
			id:  i,
			l1:  *cache.NewL1(sh.l1Bytes),
			rac: cache.NewRAC(sh.racEntries),
			vmm: vm.New(i, sh.totalPages, p.FreeMinPct, p.FreeTargetPct),
			bus: *bus.New(p.BusCycles),
		}
		// Init/Configure after the node has its final address: small bank
		// counts store their banks inside the struct itself. The tier
		// config is pinned by sh.tierSig, so recycling keeps it.
		if len(tiers) > 0 {
			m.nodes[i].mem.Configure(sh.memBanks, tiers, pol)
		} else {
			m.nodes[i].mem.Init(sh.memBanks)
		}
	}
	// The directory's callbacks are bound to m itself, so they survive
	// recycling: the whole machine is pooled as a unit.
	m.dir = directory.New(sh.nodes, sh.homeLimit, p.RefetchThreshold, m.onInvalidate, m.onWriteback)
	return m
}

// recycle restores a pooled machine to the state newShaped leaves it in,
// reapplying the run parameters the shape does not pin.
func (m *Machine) recycle(sh shape, p *params.Params) {
	m.released = false
	for _, nd := range m.nodes {
		nd.l1.Reset()
		nd.rac.Reset()
		nd.vmm.Reset(sh.totalPages, p.FreeMinPct, p.FreeTargetPct)
		nd.tlb.reset()
		nd.bus.Reconfigure(p.BusCycles)
		nd.mem.Reset()
		nd.dir.Reset()
		nd.blocked = 0
		nd.arriveTime = 0
		nd.prevRowConf = 0
	}
	m.dir.Reset(sh.homeLimit, p.RefetchThreshold)
	m.q.Reset()
	m.locks.Reset()
	m.lockOther = nil
	m.waiters = m.waiters[:0]
	m.active = 0
	m.barriers = 0
	m.aborted = nil
	m.invHome, m.invDelay = 0, 0
	m.checker = nil
	m.nextSample = 0
	m.nextEpoch = 0
	m.fetchCount, m.fetchTotal, m.fwdCount, m.invCount = 0, 0, 0, 0
	m.tiered = false
	m.tierPromotes, m.tierDemotes = 0, 0
}

// Release returns the machine's recyclable state (caches, page tables,
// directory chunks, event queue, stream chunk buffers) to the process-wide
// arena for reuse by a later run of the same shape. The machine must not be
// used after Release. Statistics and samples returned by Run are allocated
// per run and remain valid — Release drops the machine's references to them
// so pooling does not pin them.
func (m *Machine) Release() {
	if m.released {
		return
	}
	m.released = true
	for _, nd := range m.nodes {
		workload.Recycle(nd.stream)
		nd.stream = nil
		nd.chunks = nil
		nd.pend, nd.pendPos = nil, 0
		nd.pol = nil
		nd.vmm.SetRecorder(nil)
	}
	m.gen = nil
	m.net = nil
	m.st = nil
	m.samples = nil
	m.checker = nil
	// Drop the run's observability instruments so pooling does not pin a
	// caller's Recording.
	m.rec, m.ep = nil, nil
	m.dir.SetRecorder(nil)
	arenaPut(m)
}
