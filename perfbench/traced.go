package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"vivo/internal/chaos"
	"vivo/internal/metrics"
	"vivo/internal/obs"
	"vivo/internal/sim"
	"vivo/internal/trace"
)

// span is one interval the benchmark's own code spent in a layer call.
// Times are host seconds since the traced iteration began.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the iteration's root
	Iter   int     `json:"iter"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Steps is the kernel events executed inside a phase span.
	Steps uint64 `json:"steps,omitempty"`
}

// tracer is the traced iteration's instrumentation: spans kept in memory,
// a trace.Sink counting the simulation's events by category and name, the
// pending-queue maximum over the checkpoint grid, and a CPU profile of the
// primary layer call. A nil *tracer is the untraced path; every method is
// a no-op on it, so the workload code is written once.
type tracer struct {
	iter       int
	t0         time.Time
	spans      []span
	sink       *countSink
	pendingMax int

	prof    bytes.Buffer
	profErr error
	// replay is the host time spent replaying a chaos campaign's runs.
	replay time.Duration
}

func newTracer(iter int) *tracer {
	return &tracer{iter: iter, t0: time.Now(), sink: &countSink{n: map[countKey]int64{}}}
}

func (tc *tracer) since(t time.Time) float64 { return t.Sub(tc.t0).Seconds() }

// begin opens a span and returns its id (-1 on a nil tracer).
func (tc *tracer) begin(parent int, name string) int {
	if tc == nil {
		return -1
	}
	id := len(tc.spans)
	tc.spans = append(tc.spans, span{ID: id, Parent: parent, Iter: tc.iter, Name: name, Start: tc.since(time.Now())})
	return id
}

// end closes span id.
func (tc *tracer) end(id int) {
	if tc == nil || id < 0 {
		return
	}
	tc.spans[id].End = tc.since(time.Now())
}

// phase records a closed harness-phase span.
func (tc *tracer) phase(parent int, name string, from, to time.Time, steps uint64) {
	if tc == nil {
		return
	}
	tc.spans = append(tc.spans, span{
		ID: len(tc.spans), Parent: parent, Iter: tc.iter, Name: "phase." + name,
		Start: tc.since(from), End: tc.since(to), Steps: steps,
	})
}

// pending folds one Kernel.Pending sample into the maximum.
func (tc *tracer) pending(n int) {
	if tc != nil && n > tc.pendingMax {
		tc.pendingMax = n
	}
}

// profile starts (on) or stops the CPU profile around the primary layer
// call.
func (tc *tracer) profile(on bool) {
	switch {
	case tc == nil:
	case on:
		tc.profErr = pprof.StartCPUProfile(&tc.prof)
	default:
		pprof.StopCPUProfile()
	}
}

// writeSpans writes the spans as JSON to path.
func (tc *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(tc.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfTimes returns each span name's self time: its duration minus the
// part its children cover (children never overlap: the benchmark is one
// goroutine).
func (tc *tracer) selfTimes() map[string]float64 {
	self := map[string]float64{}
	for _, s := range tc.spans {
		self[s.Name] += s.End - s.Start
		if s.Parent >= 0 {
			self[tc.spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self
}

// countKey identifies one kind of simulation event.
type countKey struct {
	cat  trace.Category
	name string
}

// countSink is the harness Sink of a traced run: it counts events by
// category and name and retains nothing else.
type countSink struct {
	n     map[countKey]int64
	total int64
}

func (c *countSink) Record(e trace.Event) {
	c.n[countKey{e.Cat, e.Name}]++
	c.total++
}

func (c *countSink) count(cat trace.Category, name string) int64 { return c.n[countKey{cat, name}] }

// sortTimes sorts checkpoint instants ascending.
func sortTimes(ts []sim.Time) { sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] }) }

// chaosRecoveryTail mirrors the campaign's recovery-oracle window: the
// baseline tail is mean throughput over the last 15 s of load.
const chaosRecoveryTail = 15 * time.Second

// replayCampaign re-executes the baseline and every run of a finished
// guided campaign through obs.Harness with the counting sink and the
// checkpoint grid attached — the campaign keeps its kernels and event
// streams to itself, so this is how the per-layer counts and phase
// times reach the benchmark. Each replay is checked against the
// report: the baseline must reproduce the recorded baseline tail and,
// when traced, every run must re-judge to the verdicts the campaign
// recorded. An untraced replay (tc nil) only counts kernel steps, so it
// skips the event log the verdicts need.
func replayCampaign(it *iteration, rep *chaos.GuidedReport, tc *tracer, parent int) error {
	type replay struct {
		name  string
		seed  int64
		sched chaos.Schedule
		want  []chaos.Verdict
	}
	runs := []replay{{name: "chaos.baseline", seed: rep.BaselineSeed}}
	for _, gr := range rep.Runs {
		runs = append(runs, replay{fmt.Sprintf("chaos.run%03d", gr.Index), gr.Seed, gr.Schedule, gr.Verdicts})
	}
	if tc != nil {
		defer func(t0 time.Time) { tc.replay += time.Since(t0) }(time.Now())
	}
	for i, r := range runs {
		sp := tc.begin(parent, r.name)
		h := chaosHarness(rep.Version, rep.Params, r.seed, r.sched)
		events := &obs.EventLog{}
		var probes []obs.Probe
		if tc != nil {
			probes = append(probes, events)
		}
		run, err := runPhased(it, h, chaosPhases(rep.Params), tc, sp, probes...)
		if err != nil {
			return err
		}
		tc.end(sp)
		if i == 0 {
			tail := run.Rec.Timeline().MeanThroughput(h.LoadFor-chaosRecoveryTail, h.LoadFor)
			if tail != rep.BaselineTail {
				return fmt.Errorf("replayed baseline tail %v != campaign's %v", tail, rep.BaselineTail)
			}
			continue
		}
		if tc == nil {
			continue
		}
		served, failed := run.Rec.Totals()
		o := &chaos.Observation{
			Version:   rep.Version,
			Seed:      r.seed,
			Schedule:  r.sched,
			P:         rep.Params,
			Horizon:   h.LoadFor,
			Issued:    run.Clients.Issued(),
			Unsettled: run.Clients.Unsettled(),
			Served:    served,
			Failed:    failed,
			Outcomes: map[metrics.Outcome]int64{
				metrics.Served:         run.Rec.OutcomeCount(metrics.Served),
				metrics.ConnectTimeout: run.Rec.OutcomeCount(metrics.ConnectTimeout),
				metrics.RequestTimeout: run.Rec.OutcomeCount(metrics.RequestTimeout),
				metrics.Refused:        run.Rec.OutcomeCount(metrics.Refused),
			},
			BaselineTail: rep.BaselineTail,
			Timeline:     run.Rec.Timeline(),
			Events:       events.Events,
			Inventory:    run.Deployment.Inventory(),
		}
		got := chaos.RenderVerdicts(chaos.Judge(o, chaos.DefaultOracles()))
		if want := chaos.RenderVerdicts(r.want); got != want {
			return fmt.Errorf("replayed %s judged\n%s\nbut the campaign recorded\n%s", r.name, got, want)
		}
	}
	return nil
}
