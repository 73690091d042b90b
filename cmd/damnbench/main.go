// Command damnbench regenerates every table and figure of the paper's
// evaluation (§6) on the simulated testbed and prints them as text tables.
//
// Usage:
//
//	damnbench [-quick] [-parallel N] [-seed N]
//	          [-exp all|table1|fig2|fig4|fig5|fig6|table3|fig7|fig8|fig9|fig10|fig11|scaling|chaos|recovery|loss|cluster|tenants|bypass]
//	          [-recovery] [-topo-workers N]
//	          [-faults P] [-fault-seed N] [-stats out.json] [-trace out.trace]
//
// The default full-fidelity run takes a few minutes; -quick shrinks the
// measurement windows for a fast smoke pass. -parallel N fans each figure's
// scheme × datapoint jobs out across N workers (default GOMAXPROCS;
// -parallel 1 reproduces the fully serial run). Every job owns a private
// simulated machine and RNG and results are collected in declaration order,
// so stdout is byte-identical for every N; per-figure timing goes to stderr
// to keep it that way. -stats writes a JSON document with every machine's
// metrics registry keyed "<figure>/<scheme>"; -trace writes a Chrome
// trace_event file (load in chrome://tracing or Perfetto) with one process
// per simulated machine and one thread per core — tracing shares one sink
// across machines, so it forces a serial run.
//
// -faults P arms the deterministic fault-injection plane on every machine:
// each fault kind (link drop/corrupt/duplicate/reorder, DMA faults,
// invalidation time-outs, IOVA/memory exhaustion, lost/delayed completions)
// fires with per-visit probability P on the schedule rooted at -fault-seed.
// -exp chaos runs the dedicated chaos harness and prints the injected-fault
// and recovery evidence.
//
// -recovery (or -exp recovery) adds the fault-domain recovery figure: per
// scheme, a DMA-fault storm quarantines the NIC and the recovery supervisor
// heals it; the row reports the throughput dip, detection latency and MTTR.
// With -exp chaos, -recovery also attaches the supervisor to the chaos
// machines, so chaos storms are contained instead of ridden out.
//
// Like chaos and recovery, the entries below are not paper figures: -exp all
// leaves them out, and -exp all,<name> adds one to the full run.
//
// -exp scaling adds the RSS scale-out figure: netperf RX throughput at
// 1/2/4/8/16 simulated cores per scheme, with flows spread across one RX
// ring per core by the deterministic Toeplitz hash. The run fails if any RX
// completion executes off its ring's core or any DAMN request is clamped to
// a foreign shard.
//
// -exp loss adds the loss-resilience figure: reliable (ARQ) flows per scheme
// over a lossy link (0–5% drop/corrupt), reporting delivered goodput,
// retransmission rate, CPU per delivered megabyte, and a chaos column where
// the same flows ride the uniform all-kinds fault schedule under the
// recovery supervisor. The fault schedule is rooted at -fault-seed and
// replays exactly.
//
// -exp tenants adds the multi-tenant isolation figure: N tenants (1/2/4/8)
// share one protected NIC, each with its own virtual function — a private
// IOMMU domain, DAMN cache generation and RSS ring pair — behind a
// capability-checked buffer handoff and a weighted fair share of the PCIe
// ceiling. For every N > 1 datapoint one tenant is compromised (forged
// capabilities, DMA probes into sibling IOVA ranges, a VF-filtered DMA-fault
// storm); the row reports the neighbours' worst goodput ratio, where the
// containment ladder left the attacker, and what the capability gate and
// per-tenant domains blocked.
//
// -exp bypass adds the kernel-bypass figure: the five kernel schemes under
// single-core netperf RX next to bypass-raw (virtio-style polling rings,
// permanent identity mappings, no protection — the DPDK baseline) and
// bypass-prot (the same rings behind a per-app IOMMU domain registered once
// at setup). Rows report goodput, CPU microseconds per megabyte (busy-poll
// spin included), idle busy-poll burn, and the measured Table 1 safety
// verdicts; the run fails unless raw beats iommu-off, prot stays within 10%
// of raw, and both burn idle CPU. The bypass family also appears as extra
// rows of the scaling figure.
//
// -exp cluster adds the multi-machine cluster figure: per scheme, a 4-sender
// incast storm through a tail-dropping router and a 2-client/2-server
// memcached cluster behind a load balancer, both on the sharded
// conservative-parallel topology engine. -topo-workers N advances N machines
// concurrently inside lookahead epochs; the figure's rows are byte-identical
// for any value (1 = serial reference).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/asplos18/damn/internal/experiments"
	"github.com/asplos18/damn/internal/stats"
)

func main() {
	quick := flag.Bool("quick", false, "short measurement windows")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "experiment worker count (1 = serial; output is byte-identical for any value)")
	seed := flag.Int64("seed", 1, "simulation seed")
	faultRate := flag.Float64("faults", 0, "per-visit fault-injection probability for every fault kind (0 = off); see internal/faults")
	faultSeed := flag.Int64("fault-seed", 1, "seed of the deterministic fault schedule (used with -faults or -exp chaos)")
	exp := flag.String("exp", "all", "experiment to run (comma separated): all, table1, fig2, fig4, fig5, fig6, table3, fig7, fig8, fig9, fig10, fig11, ablations, footnote5, scaling, chaos, recovery, loss, cluster, tenants, bypass")
	recover := flag.Bool("recovery", false, "fault-domain recovery: add the recovery figure to the run, and attach the device-recovery supervisor to chaos machines")
	topoWorkers := flag.Int("topo-workers", 1, "host workers advancing a topology's machines in parallel (output is identical for any value)")
	statsOut := flag.String("stats", "", "write per-figure metrics snapshots to this JSON file")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file of every simulated machine")
	flag.Parse()

	opts := experiments.Options{Quick: *quick, Seed: *seed, Parallel: *parallel,
		TopoWorkers: *topoWorkers,
		FaultRate:   *faultRate, FaultSeed: *faultSeed, Recovery: *recover}
	var snaps map[string]stats.Snapshot
	if *statsOut != "" {
		snaps = map[string]stats.Snapshot{}
		opts.OnStats = func(label string, snap stats.Snapshot) { snaps[label] = snap }
	}
	if *traceOut != "" {
		opts.Tracer = stats.NewTracer()
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	if *recover {
		want["recovery"] = true
	}
	all := want["all"]

	ran := 0
	for _, fig := range experiments.Catalog() {
		// The chaos harness is a robustness gate, not a paper figure: run
		// it only when asked for by name, so -exp all stays the paper's
		// output.
		if !want[fig.Name] && (!all || !fig.Paper) {
			continue
		}
		ran++
		start := time.Now()
		out, err := fig.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", fig.Name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		// Wall-clock timing goes to stderr: stdout stays byte-identical
		// across runs and -parallel settings.
		fmt.Fprintf(os.Stderr, "(%s computed in %.1fs)\n", fig.Name, time.Since(start).Seconds())
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *statsOut != "" {
		if err := writeStats(*statsOut, snaps); err != nil {
			fmt.Fprintf(os.Stderr, "stats: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d metric snapshots to %s\n", len(snaps), *statsOut)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, opts.Tracer); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d trace events to %s", opts.Tracer.Len(), *traceOut)
		if d := opts.Tracer.Dropped(); d > 0 {
			fmt.Printf(" (%d dropped past the event limit)", d)
		}
		fmt.Println()
	}
}

func writeStats(path string, snaps map[string]stats.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snaps); err != nil {
		return err
	}
	return f.Close()
}

func writeTrace(path string, tr *stats.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}
