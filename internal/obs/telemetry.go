package obs

import (
	"sort"
	"sync"
	"time"

	"vmsh/internal/vclock"
)

// Sample is one telemetry snapshot: the registry's scalar view frozen
// at a virtual instant.
type Sample struct {
	VTime  time.Duration
	Values map[string]int64
}

// Telemetry periodically samples a Registry on virtual-time interval
// boundaries into a fixed-capacity ring buffer, turning the registry's
// final-value counters into time series over vtime. Sampling is driven
// by the clock's own Observe hook, so it fires deterministically: the
// first Advance landing at or past each interval boundary takes one
// snapshot, regardless of wall-clock scheduling or worker count.
//
// Telemetry only reads simulation state — it never advances the clock
// or touches the registry's values — so enabling it cannot change any
// simulated result or determinism digest.
type Telemetry struct {
	clock    *vclock.Clock
	reg      *Registry
	interval time.Duration

	mu        sync.Mutex
	next      time.Duration
	ring      []Sample
	head      int // index of oldest sample when full
	full      bool
	taken     int64 // total samples ever taken (>= len when ring wrapped)
	unobserve func()
}

// NewTelemetry starts sampling reg every interval of clock's virtual
// time, keeping the most recent capacity samples. interval and
// capacity must be positive.
func NewTelemetry(clock *vclock.Clock, reg *Registry, interval time.Duration, capacity int) *Telemetry {
	if interval <= 0 {
		panic("obs: telemetry interval must be positive")
	}
	if capacity <= 0 {
		panic("obs: telemetry capacity must be positive")
	}
	tm := &Telemetry{
		clock:    clock,
		reg:      reg,
		interval: interval,
		ring:     make([]Sample, 0, capacity),
	}
	now := clock.Now()
	tm.next = now - now%interval + interval
	tm.unobserve = clock.Observe(func(time.Duration) {
		tm.tick(clock.Now())
	})
	return tm
}

// tick takes a sample when the clock crossed the next boundary. One
// sample per crossing: a single large Advance spanning many boundaries
// still snapshots once (the intermediate instants never existed).
func (tm *Telemetry) tick(now time.Duration) {
	tm.mu.Lock()
	if now < tm.next {
		tm.mu.Unlock()
		return
	}
	tm.next = now - now%tm.interval + tm.interval
	s := Sample{VTime: now, Values: tm.reg.Snapshot()}
	if len(tm.ring) < cap(tm.ring) {
		tm.ring = append(tm.ring, s)
	} else {
		tm.ring[tm.head] = s
		tm.head = (tm.head + 1) % cap(tm.ring)
		tm.full = true
	}
	tm.taken++
	tm.mu.Unlock()
}

// Stop detaches the clock observer; recorded samples survive.
func (tm *Telemetry) Stop() {
	if tm == nil {
		return
	}
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if tm.unobserve != nil {
		tm.unobserve()
		tm.unobserve = nil
	}
}

// Taken returns how many samples were ever taken (ring overwrites
// included).
func (tm *Telemetry) Taken() int64 {
	if tm == nil {
		return 0
	}
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.taken
}

// Samples returns the retained samples oldest-first.
func (tm *Telemetry) Samples() []Sample {
	if tm == nil {
		return nil
	}
	tm.mu.Lock()
	defer tm.mu.Unlock()
	out := make([]Sample, 0, len(tm.ring))
	if tm.full {
		out = append(out, tm.ring[tm.head:]...)
		out = append(out, tm.ring[:tm.head]...)
	} else {
		out = append(out, tm.ring...)
	}
	return out
}

// Series extracts one metric's time series from the retained samples:
// parallel vtime/value slices oldest-first. Samples missing the key
// contribute a zero (the counter did not exist yet).
func (tm *Telemetry) Series(key string) ([]time.Duration, []int64) {
	samples := tm.Samples()
	ts := make([]time.Duration, len(samples))
	vs := make([]int64, len(samples))
	for i, s := range samples {
		ts[i] = s.VTime
		vs[i] = s.Values[key]
	}
	return ts, vs
}

// Keys returns the union of metric keys across retained samples,
// sorted.
func (tm *Telemetry) Keys() []string {
	set := make(map[string]struct{})
	for _, s := range tm.Samples() {
		for k := range s.Values {
			set[k] = struct{}{}
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
