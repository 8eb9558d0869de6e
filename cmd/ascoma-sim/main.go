// Command ascoma-sim runs one simulation of a (architecture, workload,
// memory pressure) configuration and prints the execution-time breakdown
// and miss classification the paper's figures are built from.
//
// Usage:
//
//	ascoma-sim -arch ascoma -workload radix -pressure 70 [-scale 4] [-v]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ascoma"
	"ascoma/internal/prof"
	"ascoma/internal/stats"
)

func main() {
	arch := flag.String("arch", "ascoma", "architecture: ccnuma, scoma, rnuma, vcnuma, ascoma, mignuma")
	wl := flag.String("workload", "radix", "workload: "+strings.Join(ascoma.Workloads(), ", "))
	pressure := flag.Int("pressure", 50, "memory pressure in percent (1-99)")
	scale := flag.Int("scale", 1, "problem-size divisor (1 = paper scale)")
	verbose := flag.Bool("v", false, "print per-node statistics")
	jsonOut := flag.Bool("json", false, "emit the full statistics as JSON")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	trace := flag.String("trace", "", "record a flight-recorder trace to this file (inspect with ascoma-inspect)")
	epoch := flag.Int64("epoch", 0, "with -trace, sample per-node epoch probes every N cycles (0 = events only)")
	quantum := flag.Int64("quantum", 0, "cycles per node timeslice (0 = the 100-cycle default; changes simulated results)")
	tiers := flag.String("tiers", "", "memory tiers as capPct:readCycles:writeCycles,... fastest first (empty = flat memory)")
	pagePolicy := flag.String("pagepolicy", "", "DRAM row-buffer page policy: open, closed, hybrid (empty = off)")
	flag.Parse()

	a, err := ascoma.ParseArch(*arch)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tierSpecs, err := ascoma.ParseTiers(*tiers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var rec *ascoma.Recording
	if *trace != "" {
		rec = ascoma.NewRecording(0, *epoch)
	} else if *epoch != 0 {
		fmt.Fprintln(os.Stderr, "ascoma-sim: -epoch requires -trace")
		os.Exit(2)
	}
	res, err := ascoma.Run(ascoma.Config{
		Arch:       a,
		Workload:   *wl,
		Pressure:   *pressure,
		Scale:      *scale,
		Quantum:    *quantum,
		Obs:        rec,
		Tiers:      tierSpecs,
		PagePolicy: *pagePolicy,
	})
	if perr := stopProf(); perr != nil {
		fmt.Fprintln(os.Stderr, perr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if rec != nil {
		if err := ascoma.WriteTrace(*trace, rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ascoma-sim: wrote %s (%d events recorded, %d epochs)\n",
			*trace, rec.Events.Total(), epochLen(rec))
	}
	if *jsonOut {
		var out bytes.Buffer
		if err := json.Indent(&out, stats.AppendReport(nil, res.Machine), "", "  "); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		out.WriteByte('\n')
		if _, err := out.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(res.Report())

	if *verbose {
		t := &stats.Table{Header: []string{"node", "finish", "U-SH-MEM", "K-BASE", "K-OVERHD", "U-INSTR", "U-LC-MEM", "SYNC",
			"HOME", "SCOMA", "RAC", "COLD", "CONF/CAPC", "upgrades", "downgrades", "faults"}}
		for i := range res.Nodes {
			n := &res.Nodes[i]
			t.AddRow(i, n.FinishTime,
				n.Time[stats.UShMem], n.Time[stats.KBase], n.Time[stats.KOverhead],
				n.Time[stats.UInstr], n.Time[stats.ULcMem], n.Time[stats.Sync],
				n.Misses[stats.Home], n.Misses[stats.SComa], n.Misses[stats.RAC],
				n.Misses[stats.Cold], n.Misses[stats.ConfCapc],
				n.Upgrades, n.Downgrades, n.PageFaults)
		}
		fmt.Print(t.String())
	}
}

func epochLen(rec *ascoma.Recording) int {
	if rec.Epochs == nil {
		return 0
	}
	return rec.Epochs.Len()
}
