// Command perfbench is the repository's benchmark: it runs one workload
// of the simulator for a fixed host-time budget, checks every iteration's
// simulated outputs against the expected digest for the seed, and prints
// the host cost of an iteration (end-to-end metrics) or, with --trace 1,
// the per-layer breakdown from one extra traced iteration.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload table1-via5 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	// The simulation is single-threaded. With one P the benchmark uses one
	// host CPU, and the collector's work lands in wall_s instead of on a
	// second CPU whose availability on a shared host varies: paired runs
	// at GOMAXPROCS 1 and 2 showed half the run-to-run spread at 1.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spanDir is where the traced run writes its spans, relative to the
// working directory (the build directory the wrapper script uses).
const spanDir = ".bench_build/perfbench"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same simulated inputs and outputs")
	seconds := fs.Float64("seconds", 10, "host seconds of timed iterations")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an extra traced iteration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --seconds > 0, --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}

	b := &bench{w: w, seed: *seed, gate: newGate(w.name, *seed), log: stdout, errs: stderr}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d %s\n",
		w.name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.Version())
	b.timed(time.Duration(*seconds * float64(time.Second)))
	res := result{Metrics: map[string]metric{}}
	if *traced == 1 {
		b.traced(res.Metrics)
	} else {
		b.endToEnd(res.Metrics)
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0 && b.attempted > 0
	b.report(res)

	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// bench holds one invocation's state: the workload, its digest gate,
// and the per-iteration samples of the untraced iterations.
type bench struct {
	w    workload
	seed int64
	gate *gate
	log  io.Writer
	errs io.Writer

	attempted, failed int
	ok                []sampled
	// setups are the set-up samples: each untraced iteration's own (when
	// its harness is visible) plus setupRepeats set-up-only runs after it.
	setups []float64
}

// setupRepeats is how many extra set-up-only runs follow each untraced
// iteration. Set-up takes milliseconds, so a run's median of a few dozen
// samples is steady where three or four would not be.
const setupRepeats = 16

// sampled is one passing untraced iteration.
type sampled struct {
	cost hostCost
	it   *iteration
}

// iterate runs one iteration from a collected heap, recovering a panic
// as an error, and applies the digest gate. It returns nil on failure.
func (b *bench) iterate(tc *tracer) (*iteration, hostCost) {
	runtime.GC()
	var it *iteration
	var err error
	cost := measure(func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		it, err = b.w.run(b.seed, tc)
	})
	b.attempted++
	if err == nil {
		err = b.gate.check(it.digest)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.errs, "perfbench: %s iteration %d failed: %v\n", b.w.name, b.attempted, err)
		return nil, cost
	}
	return it, cost
}

// timed runs untraced iterations while another one, as long as the last,
// still fits in the budget (at least one).
func (b *bench) timed(budget time.Duration) {
	start := time.Now()
	var last time.Duration
	for b.attempted == 0 || time.Since(start)+last <= budget {
		it, cost := b.iterate(nil)
		last = cost.wall
		fmt.Fprintf(b.log, "  iter %d: wall=%.3fs cpu=%.3fs setup=%.4fs steps=%d peak_heap=%.1fMiB\n",
			b.attempted, cost.wall.Seconds(), cost.cpu.Seconds(), setupOf(it), stepsOf(it), mib(cost.peakHeap))
		if it == nil {
			continue
		}
		b.ok = append(b.ok, sampled{cost, it})
		if it.setup > 0 {
			b.setups = append(b.setups, it.setup.Seconds())
		}
		// Like the iteration's own, the extra set-ups start from a
		// collected heap rather than from the iteration's garbage.
		runtime.GC()
		for i := 0; i < setupRepeats; i++ {
			d, err := timeSetup(b.w.harness(b.seed))
			if err != nil {
				b.fail(fmt.Errorf("set-up run: %w", err))
				break
			}
			b.setups = append(b.setups, d.Seconds())
		}
	}
}

func setupOf(it *iteration) float64 {
	if it == nil {
		return 0
	}
	return it.setup.Seconds()
}

func stepsOf(it *iteration) uint64 {
	if it == nil {
		return 0
	}
	return it.steps
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// series extracts one value per passing untraced iteration.
func (b *bench) series(f func(s sampled) float64) []float64 {
	out := make([]float64, len(b.ok))
	for i, s := range b.ok {
		out[i] = f(s)
	}
	return out
}

// endToEnd fills the end-to-end metrics: medians over the untraced
// iterations.
func (b *bench) endToEnd(m map[string]metric) {
	if len(b.ok) == 0 {
		return
	}
	if b.ok[0].it.steps == 0 && b.w.steps != nil {
		// Every passing iteration ran the same simulations (the digest
		// gate says so), so one untimed count serves them all.
		steps, err := b.w.steps(b.ok[0].it)
		if err != nil {
			b.fail(fmt.Errorf("counting kernel steps: %w", err))
			return
		}
		for _, s := range b.ok {
			s.it.steps = steps
		}
	}
	putAll := func(name, unit string, xs []float64) {
		q1, med, q3 := quartiles(xs)
		m[name] = metric{med, unit}
		fmt.Fprintf(b.log, "%-14s median=%-12.6g q1=%-12.6g q3=%-12.6g n=%d %s\n", name, med, q1, q3, len(xs), unit)
	}
	put := func(name, unit string, f func(s sampled) float64) { putAll(name, unit, b.series(f)) }
	put("wall_s", "s", func(s sampled) float64 { return s.cost.wall.Seconds() })
	put("cpu_s", "s", func(s sampled) float64 { return s.cost.cpu.Seconds() })
	put("events_per_s", "1/s", func(s sampled) float64 { return float64(s.it.steps) / s.cost.wall.Seconds() })
	putAll("setup_s", "s", b.setups)
	put("peak_heap_mb", "MiB", func(s sampled) float64 { return mib(s.cost.peakHeap) })
}

// traced runs the extra traced iteration and fills the per-layer
// metrics. Host-cost rates that tracing would distort (allocations and
// GC per event) come from the untraced iterations where they ran a
// kernel; the chaos workload's kernels are only visible in the traced
// replay, so its rates come from there.
func (b *bench) traced(m map[string]metric) {
	tc := newTracer(b.attempted + 1)
	it, cost := b.iterate(tc)
	if err := tc.writeSpans(filepath.Join(spanDir, fmt.Sprintf("spans_%s_seed%d.json", b.w.name, b.seed))); err != nil {
		fmt.Fprintf(b.errs, "perfbench: writing spans: %v\n", err)
	}
	if it == nil || len(b.ok) == 0 {
		return
	}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	untracedWall := median(b.series(func(s sampled) float64 { return s.cost.wall.Seconds() }))

	// sim
	put("sim.events", "count", float64(it.steps))
	allocs, bytes := it.loadAllocs, it.loadBytes
	steps := it.loadSteps
	if med := median(b.series(func(s sampled) float64 { return float64(s.it.loadSteps) })); med > 0 {
		steps = uint64(med)
		allocs = uint64(median(b.series(func(s sampled) float64 { return float64(s.it.loadAllocs) })))
		bytes = uint64(median(b.series(func(s sampled) float64 { return float64(s.it.loadBytes) })))
	}
	put("sim.allocs_per_event", "count", ratio(float64(allocs), float64(steps)))
	put("sim.bytes_per_event", "B", ratio(float64(bytes), float64(steps)))
	put("sim.pending_live_max", "count", float64(tc.pendingMax))

	// Go runtime
	put("runtime.gc_cpu_frac", "ratio", median(b.series(func(s sampled) float64 { return ratio(s.cost.gcCPU, s.cost.busyCPU) })))
	put("runtime.gc_cycles", "count", median(b.series(func(s sampled) float64 { return float64(s.cost.gcCycles) })))

	// obs phases: host time and kernel events, summed over the
	// iteration's simulations.
	phaseS, phaseN := map[string]float64{}, map[string]float64{}
	for _, s := range tc.spans {
		if p, ok := strings.CutPrefix(s.Name, "phase."); ok {
			phaseS[p] += s.End - s.Start
			phaseN[p] += float64(s.Steps)
		}
	}
	for _, p := range phaseNames {
		put("obs."+p+"_s", "s", phaseS[p])
		put("obs."+p+"_events", "count", phaseN[p])
	}

	// Simulation event counts from the counting sink.
	for _, c := range eventCounts {
		put(c.metric, "count", float64(tc.sink.count(c.cat, c.name)))
	}
	put("trace.events", "count", float64(tc.sink.total))
	put("press.served_per_admitted", "ratio", ratio(
		float64(tc.sink.count(reqCat, reqServe)), float64(tc.sink.count(reqCat, reqAdmit))))
	put("workload.issued", "count", float64(it.issued))
	put("workload.unsettled", "count", float64(it.unsettled))
	put("latency.samples", "count", float64(it.latSamples))
	put("core.extract_s", "s", it.extract.Seconds())

	// chaos
	var runs, bits, admitted float64
	if rep := it.report; rep != nil {
		runs, bits, admitted = float64(len(rep.Runs)), float64(rep.Bits), float64(rep.Corpus.Len())
	}
	put("chaos.runs", "count", runs)
	put("chaos.signature_bits", "count", bits)
	put("chaos.admit_frac", "ratio", ratio(admitted, runs))

	// trace overhead: the traced iteration's layer calls against the
	// untraced median (the chaos replay is extra work, not overhead).
	tracedWall := cost.wall.Seconds() - tc.replay.Seconds()
	put("trace.overhead_frac", "ratio", (tracedWall-untracedWall)/untracedWall)

	put("tn_error_pct", "%", it.tnErrPct)

	// Self-time shares from the CPU profile.
	for _, l := range selfLayers {
		put(l, "ratio", 0)
	}
	shares, err := foldProfile(tc.prof.Bytes())
	if tc.profErr != nil {
		err = tc.profErr
	}
	if err != nil {
		b.fail(fmt.Errorf("cpu profile: %w", err))
	}
	for l, v := range shares {
		if !isSelfLayer(l) {
			l = layerOther
		}
		m[l] = metric{m[l].Value + v, "ratio"}
	}

	// Micro-probes.
	if p, err := probeVIA(); err == nil {
		put("viasim.send_ns", "ns", p.nsPerMsg)
		put("viasim.events_per_msg", "count", p.eventsPerMsg)
	} else {
		b.fail(err)
	}
	if p, err := probeTCP(); err == nil {
		put("tcpsim.send_ns", "ns", p.nsPerMsg)
		put("tcpsim.events_per_msg", "count", p.eventsPerMsg)
	} else {
		b.fail(err)
	}
	put("latency.observe_ns", "ns", probeObserve())
	put("failed_frac", "ratio", ratio(float64(b.failed), float64(b.attempted)))

	fmt.Fprintf(b.log, "traced iteration: wall=%.3fs (untraced median %.3fs), spans in %s\n",
		tracedWall, untracedWall, spanDir)
	self := tc.selfTimes()
	var spanNames []string
	for n := range self {
		spanNames = append(spanNames, n)
	}
	sort.Strings(spanNames)
	for _, n := range spanNames {
		fmt.Fprintf(b.log, "  span self %-22s %.4fs\n", n, self[n])
	}
}

// fail counts a failed measurement outside the iterations (a set-up run,
// the step count, a probe, the profile) as one more failed operation.
func (b *bench) fail(err error) {
	b.attempted++
	b.failed++
	fmt.Fprintf(b.errs, "perfbench: %v\n", err)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report prints every metric, sorted, as "name value unit" lines.
func (b *bench) report(res result) {
	var keys []string
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b.log, "%-28s %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(b.log, "attempted=%d failed=%d digest=%s (%s)\n", res.Attempted, res.Failed, b.gate.want, b.gate.source)
}
