package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/asplos18/damn/internal/testbed"
)

// metric is one reported value. Base, when set, states what a ratio or
// average was taken over; it goes to the human-readable report.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Base  string
}

// tailPerMille are the candidate percentiles of op_s_tail, in thousandths,
// highest first. The ladder is coarse on purpose: p75 needs 40 operations
// and p99 1000, so every workload's count at the configured run length
// stays on one step across runs and host speeds, and the reported
// percentile does not flip between runs.
var tailPerMille = []int{990, 750, 500}

// rank is the 1-based nearest rank of the per-mille percentile pm of n
// samples: the smallest k with k ≥ pm·n/1000.
func rank(pm, n int) int {
	k := (pm*n + 999) / 1000
	return max(k, 1)
}

// tailPercentile picks the highest candidate percentile with at least 10
// samples beyond it. With fewer than 20 samples none qualifies and it falls
// back to the median, reporting ok=false.
func tailPercentile(n int) (pm int, ok bool) {
	for _, pm := range tailPerMille {
		if n-rank(pm, n) >= 10 {
			return pm, true
		}
	}
	return 500, false
}

// percentile returns the nearest-rank per-mille percentile of samples.
func percentile(samples []float64, pm int) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(pm, len(s))-1]
}

func median(samples []float64) float64 { return percentile(samples, 500) }

func pmName(pm int) string { return fmt.Sprintf("p%d", pm/10) }

// ratio is a/b, or 0 when the base is empty, so every reported value stays
// a finite JSON number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timed is one measured operation.
type timed struct {
	cfg  config
	host time.Duration
	res  result
	o    *op
}

// hostRate is simulated milliseconds advanced per host second: the median
// over whole cycles of the configurations (ops holds whole cycles of n
// operations), so a burst of host noise moves one cycle, not the result.
func hostRate(ops []timed, n int) float64 {
	var rates []float64
	for i := 0; i+n <= len(ops); i += n {
		var simMS, hostS float64
		for _, t := range ops[i : i+n] {
			simMS += float64(t.res.SimTime) / 1e9
			hostS += t.host.Seconds()
		}
		rates = append(rates, ratio(simMS, hostS))
	}
	if len(rates) == 0 {
		return 0
	}
	return median(rates)
}

// cycleMedian is the median over whole cycles of n operations of each
// cycle's median operation time. A cycle holds one operation of every
// configuration, and configurations differ in cost: with an even number of
// them, the median of all operations pooled falls in the gap between two
// configurations' times and reads the slowest operation of one of them.
// Within a cycle the median is nearly always the same configuration's
// operation, so the median across cycles stays a central value.
func cycleMedian(secs []float64, n int) float64 {
	var meds []float64
	for i := 0; i+n <= len(secs); i += n {
		meds = append(meds, median(secs[i:i+n]))
	}
	if len(meds) == 0 {
		return 0
	}
	return median(meds)
}

// simSummary reduces the reference results (one per configuration, equal
// to every repeat by the determinism check) to the three sim_* metrics.
func simSummary(w workload, refs map[string]result) (gbps, cpu, gap float64) {
	var damnGbps, offGbps float64
	for _, c := range w.goodput {
		damnGbps += refs[c].Gbps
	}
	for _, c := range w.off {
		offGbps += refs[c].Gbps
	}
	var busy, mb float64
	for _, c := range w.damn {
		busy += float64(refs[c].BusyPS)
		mb += refs[c].DataMB
	}
	gbps = damnGbps / float64(len(w.goodput))
	cpu = ratio(busy/1e6, mb)
	gap = ratio(offGbps-damnGbps, offGbps) * 100
	return gbps, cpu, gap
}

// endToEnd computes the eight end-to-end metrics of an untraced run. Host
// times are multiplied by scale, to read at reference speed (refspeed.go);
// setupS already is.
func endToEnd(w workload, ops []timed, refs map[string]result, setupS, rssMB, scale float64) []metric {
	secs := make([]float64, len(ops))
	for i, t := range ops {
		secs[i] = t.host.Seconds() * scale
	}
	n := len(ops)
	pm, ok := tailPercentile(n)
	tailBase := fmt.Sprintf("%s of %d operations, %d beyond it", pmName(pm), n, n-rank(pm, n))
	if !ok {
		tailBase = fmt.Sprintf("p50 of %d operations: too few for a percentile with 10 beyond it", n)
	}
	var tail float64
	if n > 0 {
		tail = percentile(secs, pm)
	}
	perCycle := fmt.Sprintf("median over %d cycles of %d operations", n/len(w.configs), len(w.configs))
	gbps, cpu, gap := simSummary(w, refs)
	return []metric{
		{"sim_ms_per_host_s", hostRate(ops, len(w.configs)) / scale, "ms/s", perCycle},
		{"op_s_p50", cycleMedian(secs, len(w.configs)), "s", perCycle + " of each cycle's median operation"},
		{"op_s_tail", tail, "s", tailBase},
		{"setup_s", setupS, "s", ""},
		{"peak_rss_mb", rssMB, "MB", "VmHWM"},
		{"sim_gbps_damn", gbps, "Gb/s", "mean of " + strings.Join(w.goodput, ", ")},
		{"sim_cpu_us_per_mb_damn", cpu, "us/MB", "busy core time over MB (10^6 B) delivered by " + strings.Join(w.damn, ", ")},
		{"sim_damn_gap_pct", gap, "%", "Gb/s shortfall of " + strings.Join(w.goodput, "+") + " against " + strings.Join(w.off, "+")},
	}
}

// layerInputs is what a traced run measured beyond its operations.
type layerInputs struct {
	prof       *layerProfile
	allocBytes float64 // runtime/metrics /gc/heap/allocs:bytes over traced ops
	gcCPU      float64 // /cpu/classes/gc/total:cpu-seconds
	usedCPU    float64 // /cpu/classes/total minus /cpu/classes/idle
	overhead   float64 // trace.overhead_pct
}

// perLayer computes every per-layer metric from the traced operations.
// Metrics of a layer the workload does not run read 0.
func perLayer(w workload, ops []timed, refs map[string]result, in layerInputs) []metric {
	const mb = 1e6
	inSet := func(set []string) map[string]bool {
		m := map[string]bool{}
		for _, s := range set {
			m[s] = true
		}
		return m
	}
	damnSet := inSet(w.damn)
	var all, damn, bypass counts
	var nOps, nDamn, nIncast, assembled, snapshots float64
	var assembleD, closeD, snapD, runD, incastRunD time.Duration
	var dropSum float64
	for _, t := range ops {
		nOps++
		all.add(t.res.c)
		assembleD += t.o.assemble
		closeD += t.o.close
		assembled += float64(t.o.assembled)
		snapD += t.o.snapshot
		snapshots += float64(t.o.snapshots)
		runD += t.o.runSpan
		if damnSet[t.cfg.name] {
			nDamn++
			damn.add(t.res.c)
		}
		if testbed.IsBypass(t.cfg.scheme) {
			bypass.add(t.res.c)
		}
		if strings.HasPrefix(t.cfg.name, "incast-") {
			nIncast++
			incastRunD += t.o.runSpan
			dropSum += t.res.c.DropFrac
		}
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	damnMB := float64(damn.NICRXBytes+damn.NICTXBytes) / 1e6
	damnBase := fmt.Sprintf("over %.0f DAMN operations, %.1f MB through their NICs", nDamn, damnMB)

	var out []metric
	add := func(name string, v float64, unit, base string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out = append(out, metric{name, v, unit, base})
	}
	opsBase := fmt.Sprintf("over %.0f traced operations", nOps)

	// testbed, per machine: spans where the benchmark assembles machines
	// itself; where topo does it, inside the run span, the profile's
	// inclusive time.
	byTopo := assembleD == 0
	runBase := fmt.Sprintf("run spans over %d events", all.Events)
	if byTopo {
		add("testbed.assemble_ms", ratio(in.prof.AssembleNS/1e6, assembled), "ms", fmt.Sprintf("CPU profile, inclusive under NewMachine, %.0f machines", assembled))
		add("testbed.close_ms", ratio(in.prof.CloseNS/1e6, assembled), "ms", fmt.Sprintf("CPU profile, inclusive under Close, %.0f machines", assembled))
		runBase += ", topology assembly and close inside the run spans"
	} else {
		add("testbed.assemble_ms", ratio(ms(assembleD), assembled), "ms", fmt.Sprintf("span over NewMachine, %.0f machines", assembled))
		add("testbed.close_ms", ratio(ms(closeD), assembled), "ms", fmt.Sprintf("span over Close, %.0f machines", assembled))
	}
	for _, l := range hostLayers {
		add("host_ms."+l, ratio(in.prof.NS[l]/1e6, nOps), "ms", fmt.Sprintf("host CPU per operation, %d profile stacks %s", in.prof.Stacks, opsBase))
	}

	add("mem.zeroed_mb_per_op", ratio(float64(all.ZeroedB)/mb, nOps), "MB", "zeroed "+opsBase)
	add("mem.allocated_mb_end", float64(all.AllocatedB)/mb, "MB", "largest machine's allocated pages at the end of its run")

	add("sim.events_per_op", ratio(float64(all.Events), nOps), "count", opsBase)
	add("sim.host_ns_per_event", ratio(float64(runD.Nanoseconds()), float64(all.Events)), "ns", runBase)
	add("sim.core_busy_frac", ratio(float64(all.CoreBusyPS), float64(all.CorePS)), "ratio", "busy over cores × simulated time, every machine "+opsBase)
	add("sim.memctrl_gbps", ratio(all.MemBWBytes*8/1e9, float64(all.MachinePS)/1e12), "Gb/s", "memory-controller traffic over machines × simulated time "+opsBase)

	add("topo.epochs_per_op", ratio(float64(all.Epochs), nIncast), "count", fmt.Sprintf("over %.0f incast operations", nIncast))
	add("topo.host_us_per_epoch", ratio(float64(incastRunD.Nanoseconds())/1e3, float64(all.Epochs)), "us", fmt.Sprintf("incast run spans over %d epochs", all.Epochs))
	add("topo.router_drop_frac", ratio(dropSum, nIncast), "ratio", fmt.Sprintf("mean over %.0f incast operations", nIncast))

	add("iommu.translations_per_mb", ratio(float64(damn.Translations), damnMB), "1/MB", damnBase)
	add("iommu.iotlb_hit_ratio", ratio(float64(damn.IOTLBHits), float64(damn.IOTLBHits+damn.IOTLBMisses)), "ratio", fmt.Sprintf("%d lookups %s", damn.IOTLBHits+damn.IOTLBMisses, damnBase))
	add("iommu.invalidations_per_mb", ratio(float64(damn.Invalidations), damnMB), "1/MB", damnBase)
	add("dmaapi.maps_per_mb", ratio(float64(damn.Maps), damnMB), "1/MB", damnBase)
	add("dmaapi.ever_dma_pages", float64(damn.EverDMAPages), "count", "largest DAMN machine")
	add("perf.cycles_dma_map_per_mb", ratio(damn.CyclesMap, damnMB), "cycles/MB", damnBase)
	add("perf.cycles_dma_unmap_per_mb", ratio(damn.CyclesUnmap, damnMB), "cycles/MB", damnBase)

	gets := damn.MagHits + damn.DepotHits + damn.Builds
	add("damn.magazine_hit_ratio", ratio(float64(damn.MagHits), float64(gets)), "ratio", fmt.Sprintf("%d chunk gets %s", gets, damnBase))
	add("damn.chunk_builds_per_op", ratio(float64(damn.Builds), nDamn), "count", damnBase)
	add("perf.cycles_damn_refill_per_mb", ratio(damn.CyclesRefill, damnMB), "cycles/MB", damnBase)
	add("damn.footprint_mb", float64(damn.FootprintB)/mb, "MB", "largest DAMN machine's footprint at the end of its run")

	add("netstack.rx_delivered_per_op", ratio(float64(all.RXDelivered), nOps), "count", opsBase)
	add("device.rx_stalls_per_mb", ratio(float64(damn.RXStalls), damnMB), "1/MB", damnBase)
	add("device.vq_harvest_per_poll", ratio(float64(bypass.Harvested), float64(bypass.Polls)), "count", fmt.Sprintf("%d polls of the bypass operations", bypass.Polls))

	add("stats.snapshot_ms", ratio(ms(snapD), snapshots), "ms", fmt.Sprintf("span over StatsSnapshot, %.0f snapshots", snapshots))

	add("runtime.alloc_mb_per_op", ratio(in.allocBytes/mb, nOps), "MB", "runtime/metrics heap allocations "+opsBase)
	add("runtime.gc_cpu_frac", ratio(in.gcCPU, in.usedCPU), "ratio", "runtime/metrics GC CPU over non-idle CPU of the traced operations")

	out = append(out, configMetrics(w, refs)...)
	out = append(out, paperErr(w, refs))
	add("trace.overhead_pct", in.overhead, "%", "untraced over traced sim_ms_per_host_s, interleaved cycles")
	return out
}

// groupNames lists every sim.<config>.* metric name of every workload, so
// each traced run reports the same set.
func groupNames() (names []string, mc map[string]bool) {
	seen := map[string]bool{}
	mc = map[string]bool{}
	for _, w := range allWorkloads() {
		for _, c := range w.configs {
			if strings.HasPrefix(c.name, "mc-") {
				mc[c.group] = true
			}
			if !seen[c.group] {
				seen[c.group] = true
				names = append(names, c.group)
			}
		}
	}
	return names, mc
}

// configMetrics reports each configuration's simulated results:
// sim.<config>.gbps and .cpu_us_per_mb everywhere, plus .mc_kops and
// .p99_us (memcached request latency) for the cluster's schemes.
func configMetrics(w workload, refs map[string]result) []metric {
	type agg struct {
		gbps, busy, mb, kops, p99 float64
	}
	got := map[string]*agg{}
	for _, c := range w.configs {
		r := refs[c.name]
		a := got[c.group]
		if a == nil {
			a = &agg{}
			got[c.group] = a
		}
		a.gbps += r.Gbps
		a.busy += float64(r.BusyPS)
		a.mb += r.DataMB
		if r.KOps > 0 {
			a.kops = r.KOps
			a.p99 = float64(r.P99) / 1e6
		}
	}
	groups, mc := groupNames()
	var out []metric
	for _, g := range groups {
		a := got[g]
		if a == nil {
			a = &agg{}
		}
		base := "not run by this workload"
		if got[g] != nil {
			base = "this workload's " + g
		}
		out = append(out,
			metric{"sim." + g + ".gbps", a.gbps, "Gb/s", base},
			metric{"sim." + g + ".cpu_us_per_mb", ratio(a.busy/1e6, a.mb), "us/MB", base})
		if mc[g] {
			out = append(out,
				metric{"sim." + g + ".mc_kops", a.kops, "kops/s", base},
				metric{"sim." + g + ".p99_us", a.p99, "us", base})
		}
	}
	return out
}

// paperErr is the mean |simulated − paper| / paper over the configurations
// EXPERIMENTS.md gives a paper value for.
func paperErr(w workload, refs map[string]result) metric {
	if len(w.paper) == 0 {
		return metric{"workloads.paper_err_pct", 0, "%", "unvalidated: no paper reference for this workload"}
	}
	var sum float64
	for c, want := range w.paper {
		sum += math.Abs(refs[c].Gbps-want) / want
	}
	return metric{"workloads.paper_err_pct", sum / float64(len(w.paper)) * 100, "%",
		fmt.Sprintf("mean over %d paper values", len(w.paper))}
}
