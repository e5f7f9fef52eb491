package main

import "vivo/internal/trace"

// eventCount maps one simulation event kind, as the counting sink sees
// it, to the per-layer count metric it feeds.
type eventCount struct {
	metric string
	cat    trace.Category
	name   string
}

const (
	reqCat   = trace.Request
	reqAdmit = trace.EvReqAdmit
	reqServe = trace.EvReqServe
)

var eventCounts = []eventCount{
	{"substrate.sends", trace.Substrate, trace.EvSend},
	{"substrate.send_blocks", trace.Substrate, trace.EvSendBlock},
	{"substrate.credit_stalls", trace.Substrate, trace.EvCreditStall},
	{"substrate.breaks", trace.Substrate, trace.EvBreak},
	{"press.loop_blocks", trace.Press, trace.EvLoopBlock},
	{"press.peer_defers", trace.Press, trace.EvPeerDefer},
	{"press.heartbeat_misses", trace.Press, trace.EvHeartbeatMiss},
	{"press.membership_changes", trace.Press, trace.EvMembership},
	{"request.admitted", reqCat, reqAdmit},
	{"request.served", reqCat, reqServe},
	{"request.dropped", reqCat, trace.EvReqDrop},
	{"fault.injections", trace.Fault, trace.EvFaultInject},
}

// selfLayers are the self-time shares the traced run reports. A profile
// frame folded to any other name is charged to self.other, so the
// shares always sum to 1.
var selfLayers = []string{
	"self.sim", "self.container_heap", "self.gc",
	"self.viasim", "self.tcpsim", "self.substrate",
	"self.cluster", "self.osmodel", "self.press",
	"self.workload", "self.metrics", "self.latency", "self.core",
	"self.faults", "self.trace", "self.chaos", layerOther,
}

func isSelfLayer(name string) bool {
	for _, l := range selfLayers {
		if l == name {
			return true
		}
	}
	return false
}
