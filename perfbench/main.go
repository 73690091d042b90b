// Command perfbench is the repository benchmark. It drives one workload of
// the DAMN simulator through the public functions of testbed, workloads and
// topo, closed-loop with one operation in flight, and prints every metric
// by name with its unit. An operation is one experiment job: assemble the
// machine(s), run the warm-up and measurement window, check the results,
// close.
//
//	perfbench --workload netperf-1core --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 the
// per-layer ones, from a CPU profile, spans around its own calls into each
// layer, runtime/metrics and the machines' stats snapshots, and it writes
// the spans to --trace-out as Chrome trace_event JSON and the CPU profiles
// beside it. setup_s is the median of five cold set-ups, each a fresh
// process of this binary started with --setup-only. The end-to-end host
// times read at reference speed (refspeed.go). README.md maps every metric
// to its layer and to the end-to-end metric it should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bench runs the operations of one workload and accounts for them.
type bench struct {
	w      workload
	seed   int64
	refs   map[string]result
	nextID int
	stderr io.Writer
	// speed, in untraced runs, times the reference kernel after every
	// timed operation.
	speed *speed

	attempted, failed int
}

// exec runs one operation of c. A repeat is also checked against the
// reference result of the warm-up pass.
func (b *bench) exec(c config, spans *spanRecorder, repeat bool) (timed, error) {
	b.nextID++
	o := &op{seed: b.seed, spans: spans, id: b.nextID}
	t0 := time.Now()
	end := spans.begin("op "+c.name, o.id, t0)
	res, err := c.run(o)
	if err == nil {
		err = clean(res.c)
	}
	if err == nil && repeat {
		err = b.againstRefs(c.name, res)
	}
	host := time.Since(t0)
	end(host)
	return timed{cfg: c, host: host, res: res, o: o}, err
}

// account counts one operation and reports a failure.
func (b *bench) account(c config, err error) {
	b.attempted++
	if err == nil {
		return
	}
	b.failed++
	if b.failed <= 10 {
		fmt.Fprintf(b.stderr, "perfbench: %s operation failed: %v\n", c.name, err)
	}
}

// clean checks the conditions a clean run never produces.
func clean(c counts) error {
	var bad []string
	for _, x := range []struct {
		name string
		n    uint64
	}{
		{"blocked DMAs", c.Blocked}, {"NIC DMA faults", c.NICFaults},
		{"virtqueue publish faults", c.PublishFaults},
		{"rx_wrong_core", c.WrongCore}, {"shard_cpu_clamps", c.Clamps},
	} {
		if x.n != 0 {
			bad = append(bad, fmt.Sprintf("%d %s", x.n, x.name))
		}
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, ", "))
	}
	return nil
}

// againstRefs checks that a repeat of a configuration reproduced its
// reference result exactly; the warm-up pass checked the paper's orderings
// on the reference.
func (b *bench) againstRefs(name string, r result) error {
	ref := b.refs[name]
	if r.Gbps != ref.Gbps || r.KOps != ref.KOps || r.P99 != ref.P99 ||
		r.BusyPS != ref.BusyPS || r.DataMB != ref.DataMB ||
		r.SimTime != ref.SimTime || r.c.Events != ref.c.Events {
		return fmt.Errorf("repeat differs from the first run of the same seed: %.6f Gb/s, %.3f kops, %d events; first %.6f Gb/s, %.3f kops, %d events",
			r.Gbps, r.KOps, r.c.Events, ref.Gbps, ref.KOps, ref.c.Events)
	}
	return nil
}

// orderings checks the paper's orderings in which name is the first term.
func (b *bench) orderings(name string, r result) error {
	for _, ord := range b.w.order {
		if ord.a != name {
			continue
		}
		a, other := r.Gbps, b.refs[ord.b].Gbps
		unit := "Gb/s"
		if ord.kops {
			a, other, unit = r.KOps, b.refs[ord.b].KOps, "kops"
		}
		if !(a > ord.frac*other) {
			return fmt.Errorf("paper ordering broken: %s %.3f %s is not above %.2f × %s %.3f", name, a, unit, ord.frac, ord.b, other)
		}
	}
	return nil
}

// setup runs the untimed warm-up pass over every configuration; its results
// are the references every later operation must repeat.
func (b *bench) setup() {
	b.refs = map[string]result{}
	type done struct {
		c   config
		err error
	}
	var pass []done
	for _, c := range b.w.configs {
		t, err := b.exec(c, nil, false)
		b.refs[c.name] = t.res
		pass = append(pass, done{c, err})
	}
	for _, d := range pass {
		err := d.err
		if err == nil {
			err = b.orderings(d.c.name, b.refs[d.c.name])
		}
		b.account(d.c, err)
	}
}

// coldSetupRuns is how many cold set-ups setup_s is the median of, and
// refPerSetup how many reference kernel samples scale each of them.
const (
	coldSetupRuns = 5
	refPerSetup   = 5
)

// coldSetups measures set-up k times, each in a fresh process of this
// binary: runtime start, first assemblies on an empty memory pool and the
// warm-up pass, until the child reports it is ready. It returns the host
// seconds of each, and each at reference speed, scaled by the median of
// the reference kernel samples taken just before it.
func coldSetups(sp *speed, k int, w string, seed int64, stderr io.Writer) (raw, scaled []float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("cold set-up: %w", err)
	}
	for i := 0; i < k; i++ {
		scale := sp.scaleNow(refPerSetup)
		cmd := exec.Command(exe, "--setup-only", "--workload", w, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, nil, fmt.Errorf("cold set-up: %w", err)
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, nil, fmt.Errorf("cold set-up: %w", err)
		}
		line, readErr := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(t0)
		_, _ = io.Copy(io.Discard, pipe) // let the child finish writing
		if err := cmd.Wait(); err != nil {
			return nil, nil, fmt.Errorf("cold set-up: %w", err)
		}
		if readErr != nil || line != "ready\n" {
			return nil, nil, fmt.Errorf("cold set-up: child said %q (%v)", line, readErr)
		}
		raw = append(raw, d.Seconds())
		scaled = append(scaled, d.Seconds()*scale)
	}
	return raw, scaled, nil
}

// measured is what the timed loop collected.
type measured struct {
	untraced, traced []timed
	profiles         []string // CPU profile files of the traced cycles
	in               layerInputs
}

// measure runs whole cycles of the configurations, closed-loop, until the
// budget is spent. With a span recorder it alternates untraced and traced
// cycles, so trace.overhead_pct compares the two under the same host
// conditions; traced cycles also sample runtime/metrics and run under the
// CPU profiler, writing one profile per cycle to profPrefix.cpu<n>.pprof.
func (b *bench) measure(budget time.Duration, spans *spanRecorder, profPrefix string) (measured, error) {
	var m measured
	minCycles := 1
	if spans != nil {
		minCycles = 2
	}
	start := time.Now()
	for cycle := 0; cycle < minCycles || time.Since(start) < budget; cycle++ {
		on := spans != nil && cycle%2 == 1
		if !on {
			m.untraced = append(m.untraced, b.cycle(nil)...)
			continue
		}
		path := fmt.Sprintf("%s.cpu%d.pprof", profPrefix, cycle)
		f, err := os.Create(path)
		if err != nil {
			return m, fmt.Errorf("cpu profile: %w", err)
		}
		rt0 := readRuntime()
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return m, fmt.Errorf("cpu profile: %w", err)
		}
		m.traced = append(m.traced, b.cycle(spans)...)
		pprof.StopCPUProfile()
		rt1 := readRuntime()
		if err := f.Close(); err != nil {
			return m, fmt.Errorf("cpu profile: %w", err)
		}
		m.profiles = append(m.profiles, path)
		m.in.allocBytes += rt1.allocBytes - rt0.allocBytes
		m.in.gcCPU += rt1.gcCPU - rt0.gcCPU
		m.in.usedCPU += (rt1.totalCPU - rt1.idleCPU) - (rt0.totalCPU - rt0.idleCPU)
	}
	return m, nil
}

// cycle runs one operation of every configuration.
func (b *bench) cycle(spans *spanRecorder) []timed {
	out := make([]timed, 0, len(b.w.configs))
	for _, c := range b.w.configs {
		t, err := b.exec(c, spans, true)
		b.account(c, err)
		out = append(out, t)
		if b.speed != nil {
			b.speed.sample()
		}
	}
	return out
}

// runtimeSample reads the runtime/metrics the traced run reports.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU, idleCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = x.Value.Float64()
		}
	}
	return runtimeSample{v[0], v[1], v[2], v[3]}
}

// output is the last line the benchmark prints.
type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]valueUnits `json:"metrics"`
}

type valueUnits struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: netperf-1core, netperf-bidir-28core or cluster-incast-mc")
	seed := fs.Int64("seed", 1, "workload seed: the machines' seeds")
	seconds := fs.Float64("seconds", 10, "host seconds to measure; operations run in whole cycles over the configurations")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "with --trace 1 (required), write the spans here as Chrome trace_event JSON and the CPU profiles beside it")
	setupOnly := fs.Bool("setup-only", false, "run the set-up, print \"ready\" and exit (how setup_s is measured)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || (*trace == 1 && *traceOut == "") || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload netperf-1core|netperf-bidir-28core|cluster-incast-mc and --trace 0|1 (1 with --trace-out)\n")
		return 2
	}
	start := time.Now()
	b := &bench{w: w, seed: *seed, stderr: stderr}

	if *setupOnly {
		b.setup()
		fmt.Fprintln(stdout, "ready")
		return 0
	}

	var setupRaw, setupScaled []float64
	if *trace == 0 {
		var err error
		b.speed = &speed{}
		if setupRaw, setupScaled, err = coldSetups(b.speed, coldSetupRuns, w.name, *seed, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	warm0 := time.Now()
	b.setup()
	warm := time.Since(warm0).Seconds()

	var spans *spanRecorder
	if *trace == 1 {
		spans = newSpanRecorder(start)
	}
	m, err := b.measure(time.Duration(*seconds*float64(time.Second)), spans, strings.TrimSuffix(*traceOut, ".json"))
	if err == nil && *trace == 1 {
		var exe string
		if exe, err = os.Executable(); err == nil {
			m.in.prof, err = profileLayers(exe, m.profiles)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	host := newHostRecord(*seed)
	var ms []metric
	if *trace == 0 {
		rss, _ := peakRSSMB()
		ms = endToEnd(w, m.untraced, b.refs, median(setupScaled), rss, b.speed.scale())
	} else {
		m.in.overhead = (ratio(hostRate(m.untraced, len(w.configs)), hostRate(m.traced, len(w.configs))) - 1) * 100
		ms = perLayer(w, m.traced, b.refs, m.in)
		if err := spans.writeTrace(*traceOut, "perfbench "+w.name); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	hostJSON, _ := json.Marshal(host) // plain struct: cannot fail
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d trace=%d seconds=%g\n", w.name, *seed, *trace, *seconds)
	fmt.Fprintf(stdout, "# why: %s\n", w.why)
	fmt.Fprintf(stdout, "# host: %s\n", hostJSON)
	fmt.Fprintf(stdout, "# operations: %d warm-up, %d untraced, %d traced; %d failed of %d attempted\n",
		len(w.configs), len(m.untraced), len(m.traced), b.failed, b.attempted)
	if *trace == 0 {
		fmt.Fprintf(stdout, "# setup_s samples: %v at reference speed, %v host s; this process's warm-up pass: %.3f host s\n", setupScaled, setupRaw, warm)
		fmt.Fprintf(stdout, "# host speed: reference kernel median %.4f ms over %d samples (%.1f ms at reference speed); host times scaled by %.4f\n",
			median(b.speed.samples)*1e3, len(b.speed.samples), refNominal.Seconds()*1e3, b.speed.scale())
	} else {
		fmt.Fprintf(stdout, "# trace: %s (%d spans), %d CPU profiles beside it\n", *traceOut, len(spans.spans), len(m.profiles))
	}
	fmt.Fprintf(stdout, "# median host s per operation:%s\n", perConfigMedians(w, append(m.untraced, m.traced...)))
	out := output{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]valueUnits{}}
	for _, x := range ms {
		fmt.Fprintf(stdout, "# %-34s %14.6g %-9s %s\n", x.Name, x.Value, x.Unit, x.Base)
		out.Metrics[x.Name] = valueUnits{x.Value, x.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// perConfigMedians lists each configuration's median host seconds.
func perConfigMedians(w workload, ops []timed) string {
	by := map[string][]float64{}
	for _, t := range ops {
		by[t.cfg.name] = append(by[t.cfg.name], t.host.Seconds())
	}
	var sb strings.Builder
	for _, c := range w.configs {
		if s := by[c.name]; len(s) > 0 {
			fmt.Fprintf(&sb, " %s %.4f", c.name, median(s))
		}
	}
	return sb.String()
}
