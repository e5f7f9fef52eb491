package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"vivo/internal/experiments"
	"vivo/internal/faults"
	"vivo/internal/press"
)

// stubWorkload returns a workload whose iterations hand back the given
// digests in turn (panicking on "panic"), without simulating anything.
func stubWorkload(digests ...string) workload {
	i := 0
	return workload{name: "stub", harness: table1Harness, run: func(_ int64, tc *tracer) (*iteration, error) {
		d := digests[i%len(digests)]
		i++
		if d == "panic" {
			panic("stub failure")
		}
		tc.profile(true)
		tc.profile(false)
		return &iteration{digest: d, steps: 10, loadSteps: 10, setup: time.Millisecond}, nil
	}}
}

func newStubBench(w workload, g *gate) *bench {
	var sink bytes.Buffer
	return &bench{w: w, seed: 1, gate: g, log: &sink, errs: &sink}
}

func TestPerturbedDigestCountsAsFailure(t *testing.T) {
	b := newStubBench(stubWorkload("out", "out", "out perturbed", "panic", "out"), &gate{})
	for i := 0; i < 5; i++ {
		b.iterate(nil)
	}
	if b.attempted != 5 || b.failed != 2 || len(b.ok) != 0 {
		t.Fatalf("attempted=%d failed=%d; want 5 attempted, 2 failed (perturbed digest, panic)", b.attempted, b.failed)
	}
}

func TestRecordedDigestGatesFirstIteration(t *testing.T) {
	g := &gate{want: digestOf("expected"), source: "recorded"}
	if err := g.check("expected"); err != nil {
		t.Fatalf("matching output rejected: %v", err)
	}
	if err := g.check("expected "); err == nil {
		t.Fatal("perturbed output passed the recorded digest")
	}
	if _, err := expectedDigests(); err != nil {
		t.Fatal(err)
	}
}

// declared reads BENCHMARK.json's metric names and units by section.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range spec.Workload {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	return endToEnd, perLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted asserts the emitted metrics are exactly the declared set,
// with the declared units and well-formed names.
func checkEmitted(t *testing.T, section string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, m := range got {
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q is malformed", section, name)
		}
		unit, ok := want[name]
		if !ok {
			t.Errorf("%s: emitted %q is not declared in BENCHMARK.json", section, name)
		} else if unit != m.Unit {
			t.Errorf("%s: %q emitted in %q, declared in %q", section, name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %q = %v", section, name, m.Value)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: declared %q is not emitted", section, name)
		}
	}
}

func TestEmittedNamesAreDeclared(t *testing.T) {
	endToEnd, perLayer := declared(t)

	b := newStubBench(stubWorkload("out"), &gate{})
	b.timed(time.Millisecond)
	e2e := map[string]metric{}
	b.endToEnd(e2e)
	checkEmitted(t, "end_to_end", e2e, endToEnd)

	layers := map[string]metric{}
	b.traced(layers)
	checkEmitted(t, "per_layer", layers, perLayer)
	if b.failed != 0 {
		t.Errorf("stub traced run failed %d times", b.failed)
	}
}

func TestFoldPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"vivo/internal/sim.(*Kernel).Step":         "self.sim",
		"vivo/internal/sim.eventQueue.Less":        "self.sim",
		"vivo/internal/press.(*Server).route":      "self.press",
		"vivo/internal/substrate/via.(*conn).Send": "self.substrate",
		"vivo/internal/viasim.(*VI).Send.func1":    "self.viasim",
		"vivo/internal/chaos.Signature":            "self.chaos",
		"container/heap.up":                        "self.container_heap",
		"container/heap.Pop":                       "self.container_heap",
		"runtime.mallocgc":                         "self.gc",
		"runtime.scanobject":                       "self.gc",
		"runtime.gcDrain":                          "self.gc",
		"runtime.gcWriteBarrier2":                  "self.gc",
		"runtime.wbBufFlush1":                      "self.gc",
		"runtime.(*mspan).typePointersOfUnchecked": "self.gc",
		"runtime.memmove":                          "self.other",
		"runtime.mapaccess2_faststr":               "self.other",
		"main.runPhased":                           "self.other",
		"fmt.Sprintf":                              "self.other",
		"math/rand.(*Rand).Float64":                "self.other",
	} {
		if got := foldPackage(fn); got != want {
			t.Errorf("foldPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink float64

func TestFoldProfileSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			spinSink += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	shares, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if len(shares) == 0 || math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares %v sum to %v, want 1", shares, sum)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

// The fault workload re-assembles experiments.RunFault's run so it can
// time phases; its extracted stages and folded A_slo must be exactly the
// experiment's.
func TestFaultMatchesRunFault(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fault runs")
	}
	v, ft := press.TCPPressHB, faults.NodeCrash
	opt := faultOptions(1)
	fr := experiments.RunFault(v, ft, opt)
	want := describeFault(fr.Measured, experiments.SLOFold(fr, opt))
	it, err := runFault(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if it.digest != want {
		t.Fatalf("benchmark fault run:\n%s\nexperiments.RunFault:\n%s", it.digest, want)
	}
}

// The chaos workload's traced iteration replays every campaign run and
// checks the replay against the report; a divergence is an error.
func TestChaosReplayMatchesCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("a campaign and its replay")
	}
	tc := newTracer(1)
	it, err := runChaos(1, tc)
	if err != nil {
		t.Fatal(err)
	}
	if it.steps == 0 || tc.sink.total == 0 || it.report == nil || len(it.report.Runs) != chaosRuns {
		t.Fatalf("replay counted steps=%d events=%d", it.steps, tc.sink.total)
	}
}
