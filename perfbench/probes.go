package main

import (
	"fmt"
	"time"

	"vivo/internal/cluster"
	"vivo/internal/comm"
	"vivo/internal/latency"
	"vivo/internal/osmodel"
	"vivo/internal/sim"
	"vivo/internal/tcpsim"
	"vivo/internal/viasim"
)

// Layer micro-probes of the traced run. Each times only public calls of
// one layer, so a change in its figure traces back to that layer's code.

const (
	probeMsgs    = 2000
	probeMsgSize = 8 << 10
	probeRounds  = 5
	// probeGap separates the messages so each one's delivery completes
	// before the next is sent: the probe times one message's path, not
	// queueing behind its predecessor.
	probeGap = 10 * time.Millisecond
)

// sendProbe is one send-path measurement: host ns per message (median
// over the rounds) and kernel events per message.
type sendProbe struct {
	nsPerMsg, eventsPerMsg float64
}

// twoNodes builds a two-node cluster with an OS model on each node.
func twoNodes(k *sim.Kernel) (*cluster.Cluster, *osmodel.OS, *osmodel.OS) {
	cl := cluster.New(k, cluster.DefaultConfig())
	return cl, osmodel.New(k, cl.Node(0), 1<<30), osmodel.New(k, cl.Node(1), 1<<30)
}

// timeSends sends probeMsgs messages through send, running the kernel
// past each delivery, and returns host ns and kernel events per message.
func timeSends(k *sim.Kernel, send func() error, delivered *int) (float64, float64, error) {
	steps0, want := k.Steps(), *delivered+probeMsgs
	t0 := time.Now()
	for i := 0; i < probeMsgs; i++ {
		if err := send(); err != nil {
			return 0, 0, err
		}
		k.Run(k.Now() + probeGap)
	}
	ns := float64(time.Since(t0).Nanoseconds()) / probeMsgs
	if *delivered != want {
		return 0, 0, fmt.Errorf("delivered %d of %d messages", *delivered-(want-probeMsgs), probeMsgs)
	}
	return ns, float64(k.Steps()-steps0) / probeMsgs, nil
}

// probeSends repeats a send-path probe probeRounds times on one
// connection and reports the median ns per message.
func probeSends(setup func(k *sim.Kernel, delivered *int) (func() error, error)) (sendProbe, error) {
	k := sim.New(1)
	delivered := 0
	send, err := setup(k, &delivered)
	if err != nil {
		return sendProbe{}, err
	}
	var ns []float64
	var events float64
	for r := 0; r < probeRounds; r++ {
		n, ev, err := timeSends(k, send, &delivered)
		if err != nil {
			return sendProbe{}, err
		}
		ns, events = append(ns, n), ev
	}
	return sendProbe{median(ns), events}, nil
}

// probeTCP times an 8 KiB message through tcpsim's Dial/Send.
func probeTCP() (sendProbe, error) {
	return probeSends(func(k *sim.Kernel, delivered *int) (func() error, error) {
		cl, osA, osB := twoNodes(k)
		sa := tcpsim.NewStack(k, cl, cl.Node(0), osA, tcpsim.DefaultConfig())
		sb := tcpsim.NewStack(k, cl, cl.Node(1), osB, tcpsim.DefaultConfig())
		sb.Listen(func(c *tcpsim.Conn) {
			c.Handler = tcpsim.Handler{OnMessage: func(_ *tcpsim.Conn, d *tcpsim.Delivered) {
				*delivered++
				d.Release()
			}}
		})
		var src *tcpsim.Conn
		sa.Dial(1, func(c *tcpsim.Conn, err error) { src = c })
		k.Run(k.Now() + time.Second)
		if src == nil {
			return nil, fmt.Errorf("tcpsim probe: no connection")
		}
		return func() error {
			return src.Send(comm.SendParams{Msg: comm.Message{Kind: 1, Size: probeMsgSize}})
		}, nil
	})
}

// probeVIA times an 8 KiB message through viasim's Dial/Send.
func probeVIA() (sendProbe, error) {
	return probeSends(func(k *sim.Kernel, delivered *int) (func() error, error) {
		cl, osA, osB := twoNodes(k)
		na := viasim.NewNIC(k, cl, cl.Node(0), osA, viasim.DefaultConfig())
		nb := viasim.NewNIC(k, cl, cl.Node(1), osB, viasim.DefaultConfig())
		nb.Listen(func(v *viasim.VI) {
			v.Handler = viasim.Handler{OnMessage: func(_ *viasim.VI, d *viasim.Delivered) {
				*delivered++
				d.Release()
			}}
		})
		var src *viasim.VI
		na.Dial(1, func(v *viasim.VI, err error) { src = v })
		k.Run(k.Now() + time.Second)
		if src == nil {
			return nil, fmt.Errorf("viasim probe: no VI")
		}
		return func() error {
			return src.Send(comm.SendParams{Msg: comm.Message{Kind: 1, Size: probeMsgSize}}, true)
		}, nil
	})
}

// observeProbeN is the number of samples one latency-probe round records.
const observeProbeN = 1 << 20

// probeObserve times latency.Histogram.Observe over a fixed spread of
// durations (1 µs to ~1 s) and returns the median ns per call.
func probeObserve() float64 {
	var ns []float64
	for r := 0; r < probeRounds; r++ {
		var h latency.Histogram
		t0 := time.Now()
		for i := 0; i < observeProbeN; i++ {
			h.Observe(time.Duration(i&0xfffff) * time.Microsecond)
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/observeProbeN)
		if h.Count() != observeProbeN {
			panic("latency probe lost samples")
		}
	}
	return median(ns)
}
