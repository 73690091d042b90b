package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/asplos18/damn/internal/mem"
	"github.com/asplos18/damn/internal/perf"
	"github.com/asplos18/damn/internal/sim"
	"github.com/asplos18/damn/internal/testbed"
	"github.com/asplos18/damn/internal/workloads"
)

// Per-segment workload overheads of the figures this benchmark mirrors
// (cycles on top of the model's base costs; EXPERIMENTS.md "workload
// calibration"). The figure package keeps them unexported, so they are
// restated here: Fig 4 runs with none, Fig 6 with 44000.
const (
	extraSingleCore = 0
	extraBidir      = 44000
)

// workload is one benchmark workload: a fixed, ordered list of
// configurations that operations cycle through, and the reduction of their
// simulated results to the three sim_* metrics.
type workload struct {
	name    string
	why     string
	configs []config
	// damn names the DAMN configurations: their operations give
	// sim_cpu_us_per_mb_damn and the per-layer ratios of the simulated
	// layers. goodput names those whose mean Gb/s is sim_gbps_damn, and
	// off their iommu-off twins, which sim_damn_gap_pct compares them with.
	damn, goodput, off []string
	// paper gives EXPERIMENTS.md's paper values of Gb/s per configuration
	// (nil: no paper reference, so workloads.paper_err_pct is unvalidated).
	paper map[string]float64
	// order lists the paper's orderings that every operation of the
	// named configuration must keep against the reference results.
	order []ordering
}

// config is one experiment configuration; run executes one operation of
// it (assemble, warm-up and measurement window, checks, close). group is
// the <config> of its sim.<config>.* metrics: the configuration itself, or
// on the cluster its scheme, whose incast and memcached runs report
// together.
type config struct {
	name   string
	group  string
	scheme testbed.Scheme
	run    func(o *op) (result, error)
}

// ordering says that config a's Gb/s (or memcached kops) must be above
// frac × config b's.
type ordering struct {
	a, b string
	frac float64
	kops bool
}

// result is everything one operation reports. The simulated fields are
// exact for a fixed seed; the repeat check compares them bit for bit.
type result struct {
	Gbps float64 // goodput
	KOps float64 // memcached completed requests, thousands per second
	P99  sim.Time
	// BusyPS and DataMB give the CPU cost of the goodput: core busy time
	// over the window that Gbps measures, and the MB (10^6 bytes)
	// delivered in it.
	BusyPS sim.Time
	DataMB float64
	// SimTime is the simulated time the operation advanced, summed over
	// the runs it made.
	SimTime sim.Time
	c       counts
}

// counts are per-operation layer counts, summed over the operation's
// machines. Every machine is fresh, so its end-of-run snapshot is the delta.
type counts struct {
	Events        uint64
	Translations  uint64
	IOTLBHits     uint64
	IOTLBMisses   uint64
	Invalidations uint64
	Maps          uint64
	EverDMAPages  int64
	CyclesMap     float64
	CyclesUnmap   float64
	CyclesRefill  float64
	MagHits       uint64
	DepotHits     uint64
	Builds        uint64
	FootprintB    int64
	RXDelivered   uint64
	RXStalls      uint64
	NICRXBytes    uint64 // bytes every NIC received, whole run
	NICTXBytes    uint64 // bytes every NIC sent, whole run
	ZeroedB       int64
	AllocatedB    int64
	CoreBusyPS    sim.Time // every core of every machine, whole run
	CorePS        sim.Time // cores × simulated time, the busy fraction's base
	MemBWBytes    float64
	MachinePS     sim.Time // machines × simulated time, memctrl rate's base
	Polls         uint64
	Harvested     uint64
	Epochs        uint64
	DropFrac      float64
	// Conditions that a clean run never produces.
	Blocked, NICFaults, WrongCore, Clamps, PublishFaults uint64
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.Translations += o.Translations
	c.IOTLBHits += o.IOTLBHits
	c.IOTLBMisses += o.IOTLBMisses
	c.Invalidations += o.Invalidations
	c.Maps += o.Maps
	c.EverDMAPages = max(c.EverDMAPages, o.EverDMAPages)
	c.CyclesMap += o.CyclesMap
	c.CyclesUnmap += o.CyclesUnmap
	c.CyclesRefill += o.CyclesRefill
	c.MagHits += o.MagHits
	c.DepotHits += o.DepotHits
	c.Builds += o.Builds
	c.FootprintB = max(c.FootprintB, o.FootprintB)
	c.RXDelivered += o.RXDelivered
	c.RXStalls += o.RXStalls
	c.NICRXBytes += o.NICRXBytes
	c.NICTXBytes += o.NICTXBytes
	c.ZeroedB += o.ZeroedB
	c.AllocatedB = max(c.AllocatedB, o.AllocatedB)
	c.CoreBusyPS += o.CoreBusyPS
	c.CorePS += o.CorePS
	c.MemBWBytes += o.MemBWBytes
	c.MachinePS += o.MachinePS
	c.Polls += o.Polls
	c.Harvested += o.Harvested
	c.Epochs += o.Epochs
	c.Blocked += o.Blocked
	c.NICFaults += o.NICFaults
	c.WrongCore += o.WrongCore
	c.Clamps += o.Clamps
	c.PublishFaults += o.PublishFaults
}

// op is the context of one operation: its seed, its span recorder (nil in
// untraced operations) and the host durations the benchmark times itself.
type op struct {
	seed  int64
	spans *spanRecorder
	id    int
	// Host time of the calls the benchmark makes into testbed.
	assemble, close time.Duration
	assembled       int
	snapshot        time.Duration
	snapshots       int
	runSpan         time.Duration
}

// span times fn and, when tracing, records it under the current span.
func (o *op) span(name string, fn func()) time.Duration {
	t0 := time.Now()
	end := o.spans.begin(name, o.id, t0)
	fn()
	d := time.Since(t0)
	end(d)
	return d
}

// newMachine assembles one standalone machine under a span.
func (o *op) newMachine(scheme testbed.Scheme, memBytes int64) (*testbed.Machine, error) {
	var ma *testbed.Machine
	var err error
	o.assemble += o.span("testbed.NewMachine", func() {
		ma, err = testbed.NewMachine(testbed.MachineConfig{
			Scheme: scheme, Model: perf.Default28Core(), MemBytes: memBytes,
			Seed: o.seed, RingSize: 32,
		})
	})
	o.assembled++
	return ma, err
}

// closeMachine hands a machine's simulated RAM back under a span.
func (o *op) closeMachine(ma *testbed.Machine) {
	o.close += o.span("testbed.Close", ma.Close)
}

// inspect snapshots one machine at the end of its run, audits DAMN's chunk
// registry, and returns its layer counts.
func (o *op) inspect(ma *testbed.Machine) (counts, error) {
	var c counts
	var auditErr error
	o.snapshot += o.span("stats.Snapshot", func() {
		s := ma.StatsSnapshot()
		ctr := s.Counter
		c.Events = ctr("sim/events_processed")
		c.Translations = ctr("iommu/translations")
		c.IOTLBHits = ctr("iommu/iotlb_hits")
		c.IOTLBMisses = ctr("iommu/iotlb_misses")
		c.Invalidations = ctr("iommu/iotlb_invalidations")
		for k, v := range s.Counters {
			if strings.HasPrefix(k, "dmaapi/maps_") {
				c.Maps += v
			}
		}
		c.EverDMAPages = s.Gauges["dmaapi/ever_dma_pages"]
		c.CyclesMap = s.Floats["perf/cycles_dma_map"]
		c.CyclesUnmap = s.Floats["perf/cycles_dma_unmap"]
		c.CyclesRefill = s.Floats["perf/cycles_damn_refill"]
		c.MagHits = ctr("damn/magazine_hits")
		c.DepotHits = ctr("damn/depot_hits")
		c.Builds = ctr("damn/chunk_builds")
		c.FootprintB = s.Gauges["damn/footprint_bytes"]
		c.RXDelivered = ctr("netstack/rx_delivered")
		c.RXStalls = ctr("device/nic_rx_stalls")
		c.NICRXBytes = ctr("device/nic_rx_bytes")
		c.NICTXBytes = ctr("device/nic_tx_bytes")
		c.Blocked = ctr("iommu/blocked_dmas")
		c.NICFaults = ctr("device/nic_dma_faults")
		c.WrongCore = ctr("netstack/rx_wrong_core")
		c.Clamps = ctr("damn/shard_cpu_clamps")
	})
	o.snapshots++
	c.ZeroedB = ma.Mem.ZeroedBytes()
	c.AllocatedB = ma.Mem.AllocatedPages() * mem.PageSize
	now := ma.Sim.Now()
	for _, core := range ma.Cores {
		c.CoreBusyPS += core.Busy()
		c.CorePS += now
	}
	c.MemBWBytes = ma.MemBW.Used()
	c.MachinePS = now
	if ma.Damn != nil {
		if _, err := ma.Damn.Audit(); err != nil {
			auditErr = fmt.Errorf("damn.Audit on %s: %w", ma.SchemeName(), err)
		}
	}
	return c, auditErr
}

// standalone runs fn on a fresh machine: assemble, run, inspect, close.
func (o *op) standalone(scheme testbed.Scheme, memBytes int64, fn func(*testbed.Machine) (result, error)) (result, error) {
	ma, err := o.newMachine(scheme, memBytes)
	if err != nil {
		return result{}, fmt.Errorf("assemble %s: %w", scheme, err)
	}
	defer o.closeMachine(ma)
	var res result
	o.runSpan += o.span("workloads.Run", func() { res, err = fn(ma) })
	if err != nil {
		return res, err
	}
	c, err := o.inspect(ma)
	res.c.add(c)
	res.SimTime = ma.Sim.Now()
	return res, err
}

// windowResult is a run's goodput and its CPU cost over the measurement
// window, from the Gb/s and all-core utilisation the workload reports.
func windowResult(ma *testbed.Machine, gbps, cpuUtil float64, window sim.Time) result {
	return result{
		Gbps:   gbps,
		BusyPS: sim.Time(cpuUtil * float64(len(ma.Cores)) * float64(window)),
		DataMB: gbps * 1e9 / 8 * window.Seconds() / 1e6,
	}
}

func repeat(core, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = core
	}
	return out
}

func sequence(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// netperf1Core is Fig 4 at full fidelity plus the polling bypass pair.
func netperf1Core() workload {
	const warm, dur = 25 * sim.Millisecond, 100 * sim.Millisecond
	w := workload{
		name:    "netperf-1core",
		why:     "Fig 4: a saturated core, so every cycle charged on the per-segment path (map/unmap, invalidation, DAMN alloc, header copy) moves DAMN's Gb/s; RX and TX side by side",
		damn:    []string{"damn-RX", "damn-TX"},
		goodput: []string{"damn-RX", "damn-TX"},
		off:     []string{"iommu-off-RX", "iommu-off-TX"},
		// EXPERIMENTS.md Fig 4: ranges as their midpoint, "≈" values as
		// given, qualitative entries left out.
		paper: map[string]float64{
			"iommu-off-RX": 67, "deferred-RX": 66, "strict-RX": 50, "shadow-RX": 26, "damn-RX": 66,
			"iommu-off-TX": 73.5, "strict-TX": 48, "shadow-TX": 44, "damn-TX": 73.5,
		},
		order: []ordering{
			{"damn-RX", "iommu-off-RX", 0.9, false}, {"damn-RX", "strict-RX", 1, false},
			{"damn-TX", "iommu-off-TX", 0.9, false}, {"damn-TX", "strict-TX", 1, false},
			{"bypass-prot-RX", "bypass-raw-RX", 0.9, false},
		},
	}
	for _, dir := range []string{"RX", "TX"} {
		for _, s := range testbed.AllSchemes {
			dir, s, name := dir, s, string(s)+"-"+dir
			w.configs = append(w.configs, config{name: name, group: name, scheme: s, run: func(o *op) (result, error) {
				return o.standalone(s, 512<<20, func(ma *testbed.Machine) (result, error) {
					cfg := workloads.NetperfConfig{Machine: ma, Warmup: warm, Duration: dur, ExtraCycles: extraSingleCore}
					if dir == "RX" {
						cfg.RXCores = repeat(0, 4)
					} else {
						cfg.TXCores = repeat(0, 4)
					}
					r, err := workloads.RunNetperf(cfg)
					return windowResult(ma, r.TotalGbps, r.CPUUtil, dur), err
				})
			}})
		}
	}
	for _, s := range testbed.BypassSchemes {
		s, name := s, string(s)+"-RX"
		w.configs = append(w.configs, config{name: name, group: name, scheme: s, run: func(o *op) (result, error) {
			return o.standalone(s, 512<<20, func(ma *testbed.Machine) (result, error) {
				r, err := workloads.RunBypass(workloads.BypassConfig{Machine: ma, Rings: 1, Warmup: warm, Duration: dur})
				res := windowResult(ma, r.RXGbps, r.CPUUtil, dur)
				res.c.Polls, res.c.Harvested, res.c.PublishFaults = r.Polls, r.Harvested, r.PublishFaults
				return res, err
			})
		}})
	}
	return w
}

// netperfBidir is Fig 6 with the quick windows.
func netperfBidir() workload {
	const warm, dur = 10 * sim.Millisecond, 30 * sim.Millisecond
	w := workload{
		name:    "netperf-bidir-28core",
		why:     "Fig 6: RX and TX share DMA-API, DAMN and IOMMU state on one wire-bound 28-core 1 GiB machine, so mem, sim, assembly and peak RSS dominate host cost; CPU savings move CPU/MB, not Gb/s",
		damn:    []string{"damn"},
		goodput: []string{"damn"},
		off:     []string{"iommu-off"},
		paper:   map[string]float64{"iommu-off": 196, "deferred": 176, "strict": 113, "shadow": 160, "damn": 171},
		order:   []ordering{{"damn", "strict", 1, false}},
	}
	for _, s := range testbed.AllSchemes {
		s := s
		w.configs = append(w.configs, config{name: string(s), group: string(s), scheme: s, run: func(o *op) (result, error) {
			return o.standalone(s, 1<<30, func(ma *testbed.Machine) (result, error) {
				r, err := workloads.RunNetperf(workloads.NetperfConfig{
					Machine: ma, Warmup: warm, Duration: dur,
					RXCores: sequence(len(ma.Cores)), TXCores: sequence(len(ma.Cores)),
					ExtraCycles: extraBidir, Wakeup: true,
				})
				return windowResult(ma, r.TotalGbps, r.CPUUtil, dur), err
			})
		}})
	}
	return w
}

// clusterIncastMC is the cluster figure at full windows: per scheme, an
// incast operation and a memcached operation, each on its own topology.
// The topologies run their epochs serially (Workers 1): the sharded engine
// and its epochs are the same, and on a 2-CPU shared host a second worker
// made the operations 1.6× slower and their host times three to five
// times as noisy run to run, a measure of the host's scheduler more than
// of the simulator.
func clusterIncastMC() workload {
	const warm, dur = 3 * sim.Millisecond, 10 * sim.Millisecond
	w := workload{
		name:    "cluster-incast-mc",
		why:     "the only workload on sim.Cluster, topo and device.Link: 5 us epochs put the engine's per-epoch cost on the critical path; the other two predict no change for it",
		damn:    []string{"incast-damn", "mc-damn"},
		goodput: []string{"incast-damn"},
		off:     []string{"incast-iommu-off"},
		order:   []ordering{{"incast-damn", "incast-strict", 1, false}, {"mc-damn", "mc-strict", 1, true}},
	}
	for _, s := range testbed.AllSchemes {
		s := s
		w.configs = append(w.configs,
			config{name: "incast-" + string(s), group: string(s), scheme: s, run: func(o *op) (result, error) {
				var res result
				var inspectErr error
				var r workloads.IncastResult
				var err error
				o.runSpan += o.span("workloads.RunIncast", func() {
					r, err = workloads.RunIncast(workloads.IncastConfig{
						Scheme: s, Senders: 4, Workers: 1, Seed: o.seed + 1,
						Duration: dur, Warmup: warm,
						Inspect: func(ms []*testbed.Machine) error {
							inspectErr = o.inspectCluster(ms, &res)
							return nil
						},
					})
				})
				res.Gbps, res.P99 = r.Gbps, r.P99
				res.c.Epochs, res.c.DropFrac = r.Epochs, r.DropFrac
				return res, errors.Join(err, inspectErr)
			}},
			config{name: "mc-" + string(s), group: string(s), scheme: s, run: func(o *op) (result, error) {
				var res result
				var inspectErr error
				var r workloads.MemcachedClusterResult
				var err error
				o.runSpan += o.span("workloads.RunMemcachedCluster", func() {
					r, err = workloads.RunMemcachedCluster(workloads.MemcachedClusterConfig{
						Scheme: s, Clients: 2, Servers: 2, Workers: 1, Seed: o.seed + 2,
						Duration: dur, Warmup: warm,
						Inspect: func(ms []*testbed.Machine) error {
							inspectErr = o.inspectCluster(ms, &res)
							return nil
						},
					})
				})
				res.KOps, res.P99 = r.KOps, r.P99
				return res, errors.Join(err, inspectErr)
			}},
		)
	}
	return w
}

// inspectCluster checks every machine of a topology and charges the CPU
// cost of the whole run: core busy time over the bytes the NICs received.
func (o *op) inspectCluster(ms []*testbed.Machine, res *result) error {
	var firstErr error
	for _, ma := range ms {
		c, err := o.inspect(ma)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		res.c.add(c)
	}
	o.assembled += len(ms)
	res.BusyPS = res.c.CoreBusyPS
	res.DataMB = float64(res.c.NICRXBytes) / 1e6
	if len(ms) > 0 {
		res.SimTime = ms[0].Sim.Now()
	}
	return firstErr
}

// allWorkloads lists the benchmark's workloads in BENCHMARK.json order.
func allWorkloads() []workload {
	return []workload{netperf1Core(), netperfBidir(), clusterIncastMC()}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
