package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// repoPrefix is the import path of this repository's packages.
const repoPrefix = "github.com/asplos18/damn/"

// hostLayers are the buckets of host_ms.<layer>: the repository packages a
// clean run spends time in, "gc" for the runtime's background collector,
// and "other" for everything else (runtime work outside any repository
// frame, the benchmark's own code, and packages clean runs leave idle).
var hostLayers = []string{
	"sim", "mem", "iommu", "iova", "dmaapi", "damn", "netstack", "device",
	"perf", "stats", "testbed", "topo", "workloads", "gc", "other",
}

// Frames of functions whose inclusive time the profile also reports: the
// cluster workload assembles and closes its machines inside topo, where
// the benchmark cannot wrap a span around them.
const (
	fnNewMachine = repoPrefix + "internal/testbed.NewMachine"
	fnClose      = repoPrefix + "internal/testbed.(*Machine).Close"
)

// funcPackage returns the import path of a symbol such as
// "github.com/x/y.(*T).M.func1" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments hold paths too
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// attribute charges one sample, given as its stack of function names
// innermost first, to a host layer: the innermost repository frame decides,
// so runtime work (a memclr, a malloc, a GC assist) counts against the
// repository code that caused it. Stacks with no repository frame are the
// background collector's ("gc") or "other".
func attribute(stack []string) string {
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if !strings.HasPrefix(pkg, repoPrefix) {
			continue
		}
		layer, ok := strings.CutPrefix(pkg, repoPrefix+"internal/")
		if ok {
			for _, l := range hostLayers {
				if l == layer {
					return l
				}
			}
		}
		return "other"
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc"
		}
	}
	return "other"
}

// layerProfile is host CPU time split by layer, in nanoseconds, plus the
// inclusive time under machine assembly and close.
type layerProfile struct {
	NS         map[string]float64
	AssembleNS float64
	CloseNS    float64
	Stacks     int64 // distinct stacks in the profiles
}

func newLayerProfile() *layerProfile {
	return &layerProfile{NS: map[string]float64{}}
}

// profileLayers attributes every sample of the traced cycles' CPU
// profiles, which `go tool pprof -traces` decodes and merges.
func profileLayers(binary string, profiles []string) (*layerProfile, error) {
	args := append([]string{"tool", "pprof", "-traces", "-unit=ns", binary}, profiles...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	lp := newLayerProfile()
	return lp, lp.addTraces(string(text))
}

// tracesSeparator opens every stack of `pprof -traces` output.
const tracesSeparator = "-----------+"

// addTraces attributes every stack of `pprof -traces -unit=ns` output. A
// stack is the block of lines between two separators: the first holds the
// sample's nanoseconds and its innermost function, each further line one
// caller; inlined frames carry an " (inline)" suffix.
func (lp *layerProfile) addTraces(text string) error {
	var stack []string
	var ns float64
	inStack := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, tracesSeparator):
			if len(stack) > 0 {
				lp.charge(stack, ns)
			}
			stack, inStack = stack[:0], true
		case !inStack || strings.TrimSpace(line) == "":
			// the report's header, before the first stack
		case len(stack) == 0:
			value, fn, ok := strings.Cut(strings.TrimLeft(line, " "), "   ")
			v, err := strconv.ParseFloat(strings.TrimSuffix(value, "ns"), 64)
			if !ok || err != nil {
				return fmt.Errorf("go tool pprof: no sample value in %q", line)
			}
			ns = v
			stack = append(stack, strings.TrimSuffix(strings.TrimSpace(fn), " (inline)"))
		default:
			stack = append(stack, strings.TrimSuffix(strings.TrimSpace(line), " (inline)"))
		}
	}
	return nil
}

// charge adds one stack's time to its layer, and to assembly or close when
// it ran under NewMachine or Close.
func (lp *layerProfile) charge(stack []string, ns float64) {
	lp.NS[attribute(stack)] += ns
	lp.Stacks++
	var inAssemble, inClose bool
	for _, fn := range stack {
		inAssemble = inAssemble || fn == fnNewMachine
		inClose = inClose || fn == fnClose
	}
	if inAssemble {
		lp.AssembleNS += ns
	}
	if inClose {
		lp.CloseNS += ns
	}
}
