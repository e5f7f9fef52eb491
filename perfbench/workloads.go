package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"vivo/internal/chaos"
	"vivo/internal/core"
	"vivo/internal/experiments"
	"vivo/internal/faults"
	"vivo/internal/metrics"
	"vivo/internal/obs"
	"vivo/internal/press"
	"vivo/internal/sim"
)

// workload is one benchmark input: a fixed simulation geometry whose
// every simulated output is a pure function of the seed.
type workload struct {
	name string
	// run executes one iteration. A nil tracer is the untraced (timed)
	// path; a non-nil one attaches the counting sink and the checkpoint
	// grid and records spans around the layer calls.
	run func(seed int64, tc *tracer) (*iteration, error)
	// harness is the geometry of one of the workload's simulations; the
	// set-up samples are taken on it.
	harness func(seed int64) obs.Harness
	// steps, when set, counts an untraced iteration's kernel steps after
	// the fact, for workloads whose layer call hides its kernels.
	steps func(it *iteration) (uint64, error)
}

var workloads = []workload{
	{name: "table1-via5", run: runTable1, harness: table1Harness},
	{name: "fault-tcphb-crash", run: runFault, harness: func(seed int64) obs.Harness {
		return faultHarness(press.TCPPressHB, faults.NodeCrash, faultOptions(seed))
	}},
	{name: "chaos-guided-via5", run: runChaos, steps: chaosSteps, harness: func(seed int64) obs.Harness {
		return chaosHarness(press.VIAPress5, chaosParams(), seed, chaos.Schedule{})
	}},
}

// timeSetup runs h only to its set-up checkpoint and returns the host
// time it took to get there.
func timeSetup(h obs.Harness) (time.Duration, error) {
	h.LoadFor = setupEnd
	it := &iteration{}
	if _, err := runPhased(it, h, []phaseSpec{{"setup", setupEnd}}, nil, -1); err != nil {
		return 0, err
	}
	return it.setup, nil
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// iteration is what one workload execution hands back: the canonical
// text of its simulated outputs (the digest gate's input), the kernel
// work it did, and the host timestamps taken around its layer calls.
type iteration struct {
	digest string
	// steps is the number of kernel events executed, summed over every
	// simulation of the iteration.
	steps uint64
	// setup is host time from the iteration's start to the first
	// checkpoint: deployment construction, Start, WarmStart and client
	// construction.
	setup time.Duration
	// loadSteps / loadAllocs / loadBytes are the kernel steps and heap
	// allocations between the first checkpoint and the harness return
	// (the load phases), the base of the per-event allocation rates.
	loadSteps             uint64
	loadAllocs, loadBytes uint64
	// tnErrPct is |measured Tn / paper Tn − 1| × 100 (table1-via5).
	tnErrPct float64
	// extract is the host time of stage extraction plus the SLO fold
	// (fault-tcphb-crash).
	extract time.Duration
	// issued / unsettled are the client conservation counters, summed
	// over the iteration's simulations; latSamples counts latency
	// histogram samples.
	issued, unsettled, latSamples int64
	// report is the guided campaign (chaos-guided-via5).
	report *chaos.GuidedReport
}

// phaseSpec names the harness segment that ends at a checkpoint. An end
// of zero means the segment ends when Harness.Run returns (the drain).
type phaseSpec struct {
	name string
	end  sim.Time
}

// phaseNames are the obs.<phase>_s / obs.<phase>_events families, in
// the order a run passes through them.
var phaseNames = []string{"setup", "warm", "steady", "fault", "recover", "drain"}

// runPhased runs h with a checkpoint at the end of every phase and, when
// traced, one on every virtual second (the pending-queue grid). The
// checkpoint callbacks only read the clock, the step counter and the
// heap-allocation counters, so the run is the one an uninstrumented
// caller gets (obs.Harness pins checkpoint zero perturbation). Each phase
// is recorded on it and, when traced, as a span under parent.
func runPhased(it *iteration, h obs.Harness, phases []phaseSpec, tc *tracer, parent int, probes ...obs.Probe) (*obs.Run, error) {
	bounds := map[sim.Time]string{}
	for _, p := range phases {
		if p.end > 0 {
			bounds[p.end] = p.name
			h.Checkpoints = append(h.Checkpoints, p.end)
		}
	}
	if tc != nil {
		h.Sink = tc.sink
		for s := time.Second; s <= h.LoadFor; s += time.Second {
			if _, ok := bounds[s]; !ok {
				h.Checkpoints = append(h.Checkpoints, s)
			}
		}
		sortTimes(h.Checkpoints)
	}

	var (
		start      = time.Now()
		mark       = start
		markSteps  uint64
		setupSteps uint64
		loadBase   allocCounters
	)
	closePhase := func(name string, steps uint64) {
		now := time.Now()
		if name == "setup" {
			it.setup = now.Sub(start)
			setupSteps = steps
			loadBase = readAllocs()
		}
		if tc != nil {
			tc.phase(parent, name, mark, now, steps-markSteps)
		}
		mark, markSteps = now, steps
	}
	h.OnCheckpoint = func(i int, run *obs.Run) {
		if tc != nil {
			tc.pending(run.K.Pending())
		}
		if name, ok := bounds[h.Checkpoints[i]]; ok {
			closePhase(name, run.K.Steps())
		}
	}
	run, err := h.Run(probes...)
	if err != nil {
		return nil, err
	}
	if last := phases[len(phases)-1]; last.end == 0 {
		closePhase(last.name, run.K.Steps())
	}
	load := readAllocs()
	it.loadAllocs += load.objects - loadBase.objects
	it.loadBytes += load.bytes - loadBase.bytes
	it.steps += run.K.Steps()
	it.loadSteps += run.K.Steps() - setupSteps
	it.issued += run.Clients.Issued()
	it.unsettled += run.Clients.Unsettled()
	return run, nil
}

// setupEnd is the set-up checkpoint: one virtual nanosecond, by which
// time the deployment, its warm caches and the clients exist and the
// kernel has entered its first Run.
const setupEnd = time.Nanosecond

// outcomeDigest renders the recorder's totals and per-outcome counts and
// checks request conservation: every issued request is either settled
// (served or failed) or still outstanding.
func outcomeDigest(run *obs.Run) (string, error) {
	served, failed := run.Rec.Totals()
	issued, unsettled := run.Clients.Issued(), run.Clients.Unsettled()
	if issued != served+failed+unsettled {
		return "", fmt.Errorf("conservation: issued %d != served %d + failed %d + unsettled %d",
			issued, served, failed, unsettled)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "steps=%d issued=%d settled=%d unsettled=%d served=%d failed=%d",
		run.K.Steps(), issued, served+failed, unsettled, served, failed)
	for _, o := range []metrics.Outcome{metrics.Served, metrics.ConnectTimeout, metrics.RequestTimeout, metrics.Refused} {
		fmt.Fprintf(&b, " %s=%d", o, run.Rec.OutcomeCount(o))
	}
	return b.String(), nil
}

// ---- table1-via5 ----

// Table-1 geometry: VIA-PRESS-5 at quick scale, offered 1.3× its paper
// throughput, 10 s warm-up then 20 s measured; no faults, no tracer.
const (
	table1Warm    = 10 * time.Second
	table1Measure = 20 * time.Second
	table1Load    = 1.3
)

func table1Harness(seed int64) obs.Harness {
	v := press.VIAPress5
	return obs.Harness{
		Seed:    seed,
		Config:  experiments.Quick().Config(v),
		Rate:    table1Load * press.Table1Throughput(v),
		LoadFor: table1Warm + table1Measure,
	}
}

func runTable1(seed int64, tc *tracer) (*iteration, error) {
	v := press.VIAPress5
	h := table1Harness(seed)
	it := &iteration{}
	root := tc.begin(-1, "iteration")
	tc.profile(true)
	run, err := runPhased(it, h, []phaseSpec{
		{"setup", setupEnd},
		{"warm", table1Warm},
		{"steady", table1Warm + table1Measure},
	}, tc, root)
	tc.profile(false)
	if err != nil {
		return nil, err
	}
	tc.end(root)

	paper := press.Table1Throughput(v)
	tn := run.Rec.Timeline().MeanThroughput(table1Warm, table1Warm+table1Measure)
	it.tnErrPct = math.Abs(tn/paper-1) * 100
	out, err := outcomeDigest(run)
	if err != nil {
		return nil, err
	}
	it.digest = fmt.Sprintf("%s tn=%v", out, tn)
	return it, nil
}

// ---- fault-tcphb-crash ----

// faultOptions is the quick fault-run protocol (30 s stabilize, 60 s
// fault, 120 s observe, 0.5 load) measured against the default 1 s SLO.
func faultOptions(seed int64) experiments.Options {
	opt := experiments.Quick()
	opt.Seed = seed
	opt.SLO = experiments.DefaultSLO
	return opt
}

// faultHarness is the obs.Harness configuration experiments.RunFault
// builds for (v, ft): the same seed derivation, geometry and schedule, so
// the run is event-for-event the experiment's (TestFaultMatchesRunFault
// pins this), but with the checkpoints the benchmark times phases by.
func faultHarness(v press.Version, ft faults.Type, opt experiments.Options) obs.Harness {
	return obs.Harness{
		Seed:   opt.Seed*1000 + int64(v)*100 + int64(ft),
		Config: opt.Config(v),
		Rate:   opt.LoadFraction * press.Table1Throughput(v),
		Faults: []obs.FaultSpec{
			{Type: ft, Target: experiments.TargetNode, At: opt.Stabilize, Dur: opt.FaultDuration},
		},
		LoadFor: opt.Stabilize + opt.FaultDuration + opt.Observe,
	}
}

func runFault(seed int64, tc *tracer) (*iteration, error) {
	v, ft := press.TCPPressHB, faults.NodeCrash
	opt := faultOptions(seed)
	h := faultHarness(v, ft, opt)
	it := &iteration{}
	root := tc.begin(-1, "iteration")
	lat := &obs.Latency{}
	tc.profile(true)
	defer tc.profile(false)
	run, err := runPhased(it, h, []phaseSpec{
		{"setup", setupEnd},
		{"steady", opt.Stabilize},
		{"fault", opt.Stabilize + opt.FaultDuration},
		{"recover", h.LoadFor},
	}, tc, root, &obs.Throughput{}, lat)
	if err != nil {
		return nil, err
	}
	it.latSamples = lat.Rec.Total().Count()

	span := tc.begin(root, "core.extract")
	t0 := time.Now()
	m, aslo := extractFault(run, lat, v, ft, opt)
	it.extract = time.Since(t0)
	tc.end(span)
	tc.end(root)
	it.digest = describeFault(m, aslo)
	return it, nil
}

// describeFault is the fault workload's digest text: every extracted
// stage field and the folded A_slo, at full precision.
func describeFault(m core.Measured, aslo float64) string {
	return fmt.Sprintf("measured=%+v aslo=%v", m, aslo)
}

// extractFault is experiments.RunFault's stage extraction and SLO fold
// over a finished run: locate repair and detection in the recorder's
// marks, extract the stages, apply the per-stage SLO fractions, and fold
// them with the fault class's Table-3 rates into A_slo.
func extractFault(run *obs.Run, lat *obs.Latency, v press.Version, ft faults.Type, opt experiments.Options) (core.Measured, float64) {
	injectAt := opt.Stabilize
	tl := run.Rec.Timeline()
	o := core.RunObservation{
		Timeline:      tl,
		Injected:      injectAt,
		Tn:            tl.MeanThroughput(injectAt-20*time.Second, injectAt),
		End:           run.End,
		Instantaneous: ft.Instantaneous(),
		Repaired:      injectAt + opt.FaultDuration,
	}
	marks := run.Rec.Marks()
	for _, mk := range marks {
		if mk.At <= injectAt {
			continue
		}
		if ft.Instantaneous() && strings.Contains(mk.Label, "press started") {
			o.Repaired = mk.At // the last restart the fault triggered
		}
		if !ft.Instantaneous() && mk.Label == faults.MarkRepaired {
			o.Repaired = mk.At
			break
		}
	}
	for _, mk := range marks {
		if mk.At >= injectAt && (strings.Contains(mk.Label, "reconfigured") ||
			strings.Contains(mk.Label, "heartbeat timeout") ||
			strings.Contains(mk.Label, "fail-fast")) {
			if mk.At <= o.Repaired {
				o.Detected, o.HasDetect = mk.At, true
			}
			break
		}
	}
	cfg := opt.Config(v)
	for i := 0; i < cfg.Nodes; i++ {
		if s := run.Deployment.Server(i); s != nil && s.Alive() && len(s.Members()) < cfg.Nodes {
			o.Splintered = true
		}
	}
	m := core.Extract(o)
	m.ApplySLO(core.ExtractSLO(o, lat.Rec, opt.SLO))
	aslo := experiments.SLOFold(experiments.FaultRun{Version: v, Fault: ft, Measured: m}, opt)
	return m, aslo
}

// ---- chaos-guided-via5 ----

// Guided-campaign geometry: the chaos-smoke light timings on VIA-PRESS-5,
// a budget of chaosRuns schedules in batches of chaosBatch (smaller than
// the budget, so at least one mutation round runs), one worker.
const (
	chaosRuns  = 2
	chaosBatch = 1
)

// chaosFaults is the fault count of every schedule. One fault per
// schedule keeps each seed's campaign the same amount of work within a
// few percent and clear of oracle violations (a violation triggers a
// shrink of a seed-dependent number of re-runs).
const chaosFaults = 1

func chaosParams() chaos.Params {
	return chaos.Params{
		LoadFraction: 0.35,
		Stabilize:    10 * time.Second,
		Window:       15 * time.Second,
		MinDur:       2 * time.Second,
		MaxDur:       6 * time.Second,
		Budget:       chaosFaults,
		Settle:       30 * time.Second,
		Epsilon:      0.1,
	}
}

// chaosHorizon and chaosDrain mirror the campaign's run protocol: load
// runs to the latest possible heal plus the settle allowance, then the
// kernel drains every client timer for ten more seconds.
func chaosHorizon(p chaos.Params) time.Duration {
	return p.Stabilize + p.Window + p.MaxDur + p.Settle
}

const chaosDrain = 10 * time.Second

// chaosHarness is the obs.Harness one campaign run executes.
func chaosHarness(v press.Version, p chaos.Params, seed int64, s chaos.Schedule) obs.Harness {
	specs := make([]obs.FaultSpec, len(s.Faults))
	for i, f := range s.Faults {
		specs[i] = obs.FaultSpec{Type: f.Type, Target: f.Target, At: f.At, Dur: f.Dur}
	}
	return obs.Harness{
		Seed:    seed,
		Config:  experiments.Quick().Config(v),
		Rate:    p.LoadFraction * press.Table1Throughput(v),
		Faults:  specs,
		LoadFor: chaosHorizon(p),
		Drain:   chaosDrain,
	}
}

func chaosPhases(p chaos.Params) []phaseSpec {
	return []phaseSpec{
		{"setup", setupEnd},
		{"steady", p.Stabilize},
		{"fault", p.Stabilize + p.Window + p.MaxDur},
		{"recover", chaosHorizon(p)},
		{"drain", 0},
	}
}

func runChaos(seed int64, tc *tracer) (*iteration, error) {
	v, p := press.VIAPress5, chaosParams()
	it := &iteration{}
	root := tc.begin(-1, "iteration")
	span := tc.begin(root, "chaos.RunGuided")
	tc.profile(true)
	rep, err := chaos.RunGuided(chaos.GuidedOptions{
		Version:  v,
		Seed:     seed,
		Budget:   chaosRuns,
		Batch:    chaosBatch,
		Parallel: 1,
		Params:   p,
	}, chaos.DefaultOracles())
	tc.profile(false)
	tc.end(span)
	if err != nil {
		return nil, err
	}
	it.report = rep

	var b strings.Builder
	for _, gr := range rep.Runs {
		fmt.Fprintf(&b, "run %d %s %s\n%s", gr.Index, gr.Origin, gr.Schedule, chaos.RenderVerdicts(gr.Verdicts))
	}
	b.WriteString(rep.CorpusSummary())
	it.digest = b.String()

	if tc != nil {
		if err := replayCampaign(it, rep, tc, root); err != nil {
			return nil, err
		}
	}
	tc.end(root)
	return it, nil
}

// chaosSteps replays a finished campaign's runs, untraced, and returns
// their kernel steps: the campaign's own, since a replay is the same
// simulation (the traced iteration checks every replay against the
// report; this one checks the baseline).
func chaosSteps(it *iteration) (uint64, error) {
	replay := &iteration{}
	if err := replayCampaign(replay, it.report, nil, -1); err != nil {
		return 0, err
	}
	return replay.steps, nil
}
