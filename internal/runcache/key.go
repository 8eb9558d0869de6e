package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"ascoma"
	"ascoma/internal/jsonenc"
)

// keyVersion is folded into every key; bump it when the statistics schema
// or the simulated model changes incompatibly, so stale disk entries from
// an older binary can never satisfy a new request.
const keyVersion = "ascoma-run-v1"

// Key identifies one run configuration (hex SHA-256).
type Key string

// KeyOf returns the content address of cfg. Scale is normalized the way
// Run normalizes it (0 and 1 are the same problem size), and so is the
// page policy ("none" and "" both select no row-buffer model). Two configs
// that differ only in how they spell the default Params hash differently —
// a conservative miss, never a wrong hit.
//
// The preimage is appended by hand on the stack (see appendConfig), so a
// warm lookup costs one SHA-256 and the returned string. KeyOf never
// fails; the error result is kept for API compatibility.
func KeyOf(cfg ascoma.Config) (Key, error) {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	if cfg.PagePolicy == "none" {
		cfg.PagePolicy = ""
	}
	var buf [1024]byte
	sum := sha256.Sum256(appendConfig(append(buf[:0], keyVersion+"\n"...), &cfg))
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return Key(hx[:]), nil
}

// appendConfig appends the bytes json.Marshal(*cfg) produces — field
// order, names, omitempty and string escaping included — so every key
// stays what it was when the preimage came from encoding/json.
// FuzzKeyPreimage fills every exported field through reflect and holds
// the two equal, so a field added to Config or Params without a line here
// fails at once.
func appendConfig(b []byte, cfg *ascoma.Config) []byte {
	b = appendInt(b, `{"Arch":`, int64(cfg.Arch))
	b = jsonenc.AppendString(append(b, `,"Workload":`...), cfg.Workload)
	b = appendInt(b, `,"Pressure":`, int64(cfg.Pressure))
	b = appendInt(b, `,"Scale":`, int64(cfg.Scale))
	b = appendParams(append(b, `,"Params":`...), &cfg.Params)
	b = appendInt(b, `,"MaxCycles":`, cfg.MaxCycles)
	b = appendInt(b, `,"Quantum":`, cfg.Quantum)
	b = appendInt(b, `,"Ablation":`, int64(cfg.Ablation))
	b = appendInt(b, `,"SampleInterval":`, cfg.SampleInterval)
	if len(cfg.Tiers) > 0 {
		b = append(b, `,"tiers":`...)
		for i, t := range cfg.Tiers {
			sep := `,{"capacityPct":`
			if i == 0 {
				sep = `[{"capacityPct":`
			}
			b = appendInt(b, sep, int64(t.CapacityPct))
			b = appendInt(b, `,"readCycles":`, t.ReadCycles)
			b = appendInt(b, `,"writeCycles":`, t.WriteCycles)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if cfg.PagePolicy != "" {
		b = jsonenc.AppendString(append(b, `,"pagePolicy":`...), cfg.PagePolicy)
	}
	return append(b, '}')
}

func appendParams(b []byte, p *ascoma.Params) []byte {
	b = appendInt(b, `{"Nodes":`, int64(p.Nodes))
	b = appendInt(b, `,"L1Bytes":`, int64(p.L1Bytes))
	b = appendInt(b, `,"L1HitCycles":`, p.L1HitCycles)
	b = appendInt(b, `,"L1FlushLine":`, p.L1FlushLine)
	b = appendInt(b, `,"RACEntries":`, int64(p.RACEntries))
	b = appendInt(b, `,"RACHitCycles":`, p.RACHitCycles)
	b = appendInt(b, `,"LocalMemCycles":`, p.LocalMemCycles)
	b = appendInt(b, `,"MemBanks":`, int64(p.MemBanks))
	b = appendInt(b, `,"BusCycles":`, p.BusCycles)
	b = appendInt(b, `,"NetPropCycles":`, p.NetPropCycles)
	b = appendInt(b, `,"NetFallThrough":`, p.NetFallThrough)
	b = appendInt(b, `,"NetPortOccupancy":`, p.NetPortOccupancy)
	b = appendInt(b, `,"SwitchRadix":`, int64(p.SwitchRadix))
	b = appendInt(b, `,"DirCycles":`, p.DirCycles)
	b = appendInt(b, `,"DSMProcCycles":`, p.DSMProcCycles)
	b = appendInt(b, `,"FlushBlockWBCycles":`, p.FlushBlockWBCycles)
	b = appendInt(b, `,"PageFaultCycles":`, p.PageFaultCycles)
	b = appendInt(b, `,"InterruptCycles":`, p.InterruptCycles)
	b = appendInt(b, `,"RelocationCycles":`, p.RelocationCycles)
	b = appendInt(b, `,"DaemonWakeCycles":`, p.DaemonWakeCycles)
	b = appendInt(b, `,"DaemonPageCycles":`, p.DaemonPageCycles)
	b = appendInt(b, `,"FreeMinPct":`, int64(p.FreeMinPct))
	b = appendInt(b, `,"FreeTargetPct":`, int64(p.FreeTargetPct))
	b = appendInt(b, `,"DaemonInterval":`, p.DaemonInterval)
	b = appendInt(b, `,"RefetchThreshold":`, int64(p.RefetchThreshold))
	b = appendInt(b, `,"ThresholdIncrement":`, int64(p.ThresholdIncrement))
	b = appendInt(b, `,"ThresholdMax":`, int64(p.ThresholdMax))
	b = appendInt(b, `,"VCBreakEven":`, int64(p.VCBreakEven))
	b = appendInt(b, `,"VCEvalReplacements":`, int64(p.VCEvalReplacements))
	b = appendInt(b, `,"VCThresholdCap":`, int64(p.VCThresholdCap))
	b = appendInt(b, `,"BarrierCycles":`, p.BarrierCycles)
	b = appendInt(b, `,"MigrationCycles":`, p.MigrationCycles)
	return append(b, '}')
}

// appendInt appends a key prefix and a decimal integer.
func appendInt(b []byte, prefix string, v int64) []byte {
	return strconv.AppendInt(append(b, prefix...), v, 10)
}
