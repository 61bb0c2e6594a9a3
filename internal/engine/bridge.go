package engine

import (
	"fmt"
	"time"

	"vmsh/internal/netsim"
	"vmsh/internal/obs"
)

// Bridge cables two shards' packet switches together through the
// engine's deterministic merge: an uplink port on each switch whose
// deliveries, instead of landing in a local device, are posted to the
// peer shard and re-sent into the peer switch at the next barrier.
// The peer's learning switch observes the original source MACs on its
// uplink port, so reply traffic routes back through the bridge like a
// real inter-switch trunk.
//
// Determinism: an uplink frame is an ordinary cross-shard message —
// merged in (vtime, sending shard, sending seq) order — so fleet-wide
// frame interleaving is identical at any worker count. Fidelity: the
// frame is injected into the peer at max(send vtime, peer clock), the
// engine's conservative window relaxation; the peer switch then
// charges its own ingress/egress link costs as usual.
//
// Port MACs are assigned per switch (netsim.Port.MAC embeds only the
// port ID), so two bridged switches hand out colliding guest MACs when
// their device ports share an index. Callers must stagger port
// creation (e.g. create the uplink before the guest port on one side)
// or the learning switches will mis-learn.
type Bridge struct {
	a, b *bridgeEnd
}

// bridgeEnd is one side of the trunk.
type bridgeEnd struct {
	shard *Shard
	sw    *netsim.Switch
	port  *netsim.Port
	track obs.Track // "bridge:<from>-><to>" on this shard's tracer
}

// NewBridge creates the uplink port pair and wires both directions.
// Each switch must be charged to its own shard's clock (the per-shard
// host's clock); the link parameters apply to both uplink ports.
func NewBridge(a *Shard, aSw *netsim.Switch, b *Shard, bSw *netsim.Switch, link netsim.LinkParams) *Bridge {
	br := &Bridge{
		a: &bridgeEnd{shard: a, sw: aSw},
		b: &bridgeEnd{shard: b, sw: bSw},
	}
	br.a.port = aSw.NewPort(fmt.Sprintf("uplink:%d->%d", a.ID(), b.ID()), link)
	br.b.port = bSw.NewPort(fmt.Sprintf("uplink:%d->%d", b.ID(), a.ID()), link)
	br.a.track = a.Host().Trace.Track(fmt.Sprintf("bridge:%d->%d", a.ID(), b.ID()))
	br.b.track = b.Host().Trace.Track(fmt.Sprintf("bridge:%d->%d", b.ID(), a.ID()))
	wire(br.a, br.b)
	wire(br.b, br.a)
	return br
}

// wire forwards frames delivered to from's uplink port into to's
// switch, through the engine merge.
func wire(from, to *bridgeEnd) {
	from.port.Deliver = func(frame []byte) {
		// The switch may reuse its frame buffer after Deliver returns;
		// the copy crosses the shard boundary with the message.
		f := append([]byte(nil), frame...)
		at := from.shard.Now()
		// Carry the sender's ambient causal flow across the shard
		// boundary: the id travels in the closure (a plain uint64 —
		// the barrier's happens-before makes this race-free) and is
		// re-adopted on the peer tracer, so Perfetto draws one arrow
		// chain from the sending shard's process into the receiver's.
		flow := from.shard.Host().Trace.CurrentFlow()
		from.track.FlowStep("flow", "bridge.tx")
		from.shard.Post(to.shard.ID(), at, "net:uplink",
			func(s *Shard) error {
				tr := to.shard.Host().Trace
				tr.AdoptFlow(flow)
				to.track.FlowStep("flow", "bridge.rx")
				to.sw.Send(to.port, f)
				tr.ClearFlow()
				return nil
			})
	}
}

// BarrierAt schedules fn on shard `on` behind the next barrier: it
// runs only after every shard has drained everything it can reach
// without new cross-shard input — the cross-VM eval barrier within a
// single Run. (For a barrier at full global quiescence, use the phase
// idiom instead: Run returns at quiescence, so aggregate and then
// schedule the next phase and Run again; repeated Runs accumulate
// stats and stay deterministic.)
func (e *Engine) BarrierAt(on int, at time.Duration, name string, fn EventFn) {
	// A message from the chosen shard to itself is only delivered at
	// the next barrier merge, after every shard drained this window.
	e.shards[on].Post(on, at, name, fn)
}
