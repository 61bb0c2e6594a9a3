package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call from the benchmark into a layer of the
// program. Times are host nanoseconds since the run started.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Op     int    `json:"op"` // -1 outside an op (set-up, round scaffolding)
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory while tracing is on; off, it costs
// one atomic load per call.
type recorder struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id, or -1 when tracing is off.
func (r *recorder) begin(name string, parent, op int) int {
	if !r.on.Load() {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Op: op, Start: now, End: -1})
	return id
}

// end closes span id (a no-op for -1).
func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// call runs fn inside a span named name.
func (r *recorder) call(name string, parent, op int, fn func() error) error {
	id := r.begin(name, parent, op)
	err := fn()
	r.end(id)
	return err
}

// durationsMS groups closed span durations by span name.
func (r *recorder) durationsMS() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range r.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

var failuresLogged atomic.Int32

// logFailure prints the first few failed ops to stderr; the counts
// land in the result either way.
func logFailure(workload string, err error) {
	if failuresLogged.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: op failed: %v\n", workload, err)
	}
}

// runner is one set-up workload instance.
type runner interface {
	// step runs step k and returns what it did. Steps are numbered
	// from 0 across the run. A step is one op for blkio and checkpoint
	// and one fleet round of many ops for storm.
	step(k int) segment
	// counts returns the exact per-layer counts taken over the first
	// window steps; they repeat exactly for a seed.
	counts() map[string]float64
	close()
}

// workload describes one benchmark workload.
type workload struct {
	// setup builds a ready instance.
	setup func(seed int64, rec *recorder, dir string) (runner, error)
	// warmup is the number of leading steps every instance runs before
	// anything is measured; they are discarded.
	warmup int
	// window is the number of leading steps exact counts cover; a run
	// never ends before it completes them.
	window int
	// workers is the engine worker pool size (1 unless the workload
	// runs a fleet).
	workers int
}

var workloads = map[string]workload{
	"storm":      stormWorkload,
	"blkio":      blkioWorkload,
	"checkpoint": checkpointWorkload,
}

// typicalKASLR is the VM seed of storm's warm-up VM and blkio's VM,
// whose layouts the run seed does not pick. The seed sets the guest's
// KASLR layout, and attach cost follows it: over seeds 1..40 an attach
// recording holds 15k to 379k crossings. Seed 17 is the median layout
// (141k), so every run seed does the same work.
const typicalKASLR = 17

// setupReps is how many times a run builds its workload; setup_s is the
// median and the last instance is measured.
const setupReps = 9

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string
}

// segment is what a step or a measured stretch of steps did.
type segment struct {
	opsMS     []float64     // host latency of each op that passed
	attempted int           // ops tried
	failed    int           // ops whose call or output check failed
	vtime     time.Duration // simulated time advanced
	busy      time.Duration // engine event time (storm only)
	runWall   time.Duration // Fleet.Run wall time (storm only)

	// Set by measure for a stretch of steps.
	wall           time.Duration
	alloc          uint64
	gcCPU, busyCPU float64
}

// result is a finished run.
type result struct {
	trace     bool
	setupS    []float64
	main      segment // untraced steps: end-to-end numbers, and the baseline of the tracing overhead
	traced    segment // the same steps traced (traced runs only)
	warm      segment // warm-up steps: only their attempted and failed counts
	workers   int
	counts    map[string]float64
	spans     []Span
	durations map[string][]float64
	cpu       map[string]float64
	profile   []byte
}

// run sets the workload up setupReps times, warms the last instance up
// and measures it untraced for cfg.seconds.
//
// A traced run measures the untraced instance for half of cfg.seconds
// instead. It then sets up a second instance with tracing on, warms it
// up untraced, and runs the same steps again with spans and the CPU
// profiler on. Both passes start at the same step and run the same
// inputs, so their throughputs give the tracing overhead.
func run(w workload, cfg runConfig) (*result, error) {
	rec := newRecorder()
	res := &result{trace: cfg.trace, workers: w.workers}

	var r runner
	for rep := 0; rep < setupReps; rep++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		r, err = w.setup(cfg.seed, rec, cfg.dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t).Seconds())
	}
	k := warmUp(r, w.warmup, &res.warm)
	if !cfg.trace {
		res.main = measure(r, &k, cfg.seconds, w.window)
		res.counts = r.counts()
		r.close()
		return res, nil
	}

	res.main = measure(r, &k, cfg.seconds/2, w.window)
	steps := k
	r.close()
	rec.on.Store(true)
	r, err := w.setup(cfg.seed, rec, cfg.dir)
	rec.on.Store(false)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer r.close()
	k = warmUp(r, w.warmup, &res.warm)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	rec.on.Store(true)
	res.traced = measure(r, &k, 0, steps)
	rec.on.Store(false)
	pprof.StopCPUProfile()
	res.profile = buf.Bytes()
	cpu, err := foldProfile(res.profile)
	if err != nil {
		return nil, fmt.Errorf("folding CPU profile: %w", err)
	}
	res.cpu = cpu
	res.spans = rec.spans
	res.durations = rec.durationsMS()
	res.counts = r.counts()
	return res, nil
}

// warmUp runs the first n steps unmeasured, adds their attempted and
// failed ops to warm, collects garbage, and returns the next step
// number.
func warmUp(r runner, n int, warm *segment) int {
	for k := 0; k < n; k++ {
		s := r.step(k)
		warm.attempted += s.attempted
		warm.failed += s.failed
	}
	runtime.GC()
	return n
}

// measure runs steps until seconds have passed and at least minSteps
// steps (counted from 0 across the run) are done.
func measure(r runner, k *int, seconds float64, minSteps int) segment {
	var seg segment
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	gc0, busy0 := cpuSeconds()
	t0 := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	for seg.attempted == 0 || time.Since(t0) < limit || *k < minSteps {
		seg.add(r.step(*k))
		*k++
	}
	seg.wall = time.Since(t0)
	runtime.ReadMemStats(&ms)
	seg.alloc = ms.TotalAlloc - alloc0
	gc1, busy1 := cpuSeconds()
	seg.gcCPU, seg.busyCPU = gc1-gc0, busy1-busy0
	return seg
}

// cpuSeconds reads the runtime's cumulative GC CPU time and the CPU
// time spent running Go code plus GC (idle time excluded).
func cpuSeconds() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[0].Value.Float64() + s[1].Value.Float64()
}

// add folds step o into s.
func (s *segment) add(o segment) {
	s.opsMS = append(s.opsMS, o.opsMS...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.vtime += o.vtime
	s.busy += o.busy
	s.runWall += o.runWall
}

func (s segment) opsPerS() float64 { return ratio(float64(s.attempted-s.failed), s.wall.Seconds()) }

// ratio is a/b, or 0 when b is 0 (a segment in which every op failed),
// so that every metric stays a finite number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics of an untraced run. success_rate counts the
// warm-up ops too, since their outputs are checked as well.
func (res *result) endToEnd() map[string]metric {
	m := res.main
	attempted, failed := res.checked()
	return map[string]metric{
		"setup_s":      {quantile(res.setupS, 0.5), "s"},
		"ops_per_s":    {m.opsPerS(), "1/s"},
		"op_ms_p50":    {quantile(m.opsMS, 0.5), "ms"},
		"op_ms_p90":    {quantile(m.opsMS, 0.9), "ms"},
		"peak_rss_mb":  {peakRSSMB(), "MB"},
		"success_rate": {1 - ratio(float64(failed), float64(attempted)), "ratio"},
	}
}

// spanMetrics maps per-layer p50 metrics to the span they summarise.
var spanMetrics = map[string]string{
	"hypervisor.launch_ms_p50":  "hypervisor.launch",
	"core.attach_ms_p50":        "core.attach",
	"core.exec_ms_p50":          "core.exec",
	"core.detach_ms_p50":        "core.detach",
	"core.ram_hashes_ms_p50":    "core.ram_hashes",
	"lifecycle.snapshot_ms_p50": "lifecycle.snapshot",
	"lifecycle.encode_ms_p50":   "lifecycle.encode",
	"lifecycle.decode_ms_p50":   "lifecycle.decode",
	"lifecycle.restore_ms_p50":  "lifecycle.restore",
	"lifecycle.migrate_ms_p50":  "lifecycle.migrate",
	"lifecycle.verify_ms_p50":   "lifecycle.verify",
	"replay.decode_ms_p50":      "replay.decode",
	"replay.replay_ms_p50":      "replay.replay",
}

// countMetrics are the exact per-op counts, with their units.
var countMetrics = map[string]string{
	"core.procvm_calls_per_op":       "count",
	"core.bytes_per_op":              "B",
	"virtio.irqs_per_op":             "count",
	"vclock.vtime_us_per_op":         "us",
	"lifecycle.snapshot_bytes":       "B",
	"lifecycle.pages_on_wire_per_op": "count",
	"replay.crossings_per_op":        "count",
}

// perLayer are the metrics of a traced run. Spans and CPU shares come
// from the traced pass; the engine, Go runtime and host-per-vtime
// figures from the untraced pass, which neither spans nor the profiler
// disturb. A layer the workload makes no call into reports 0.
func (res *result) perLayer() map[string]metric {
	u, t := res.main, res.traced
	out := map[string]metric{}
	for name, span := range spanMetrics {
		out[name] = metric{quantile(res.durations[span], 0.5), "ms"}
	}
	for name, unit := range countMetrics {
		out[name] = metric{res.counts[name], unit}
	}
	idle := 0.0
	if u.runWall > 0 {
		idle = 1 - u.busy.Seconds()/(float64(res.workers)*u.runWall.Seconds())
	}
	out["engine.idle_share"] = metric{idle, "ratio"}
	out["go.alloc_mb_per_op"] = metric{ratio(float64(u.alloc)/(1<<20), float64(u.attempted)), "MB"}
	out["go.gc_cpu_share"] = metric{ratio(u.gcCPU, u.busyCPU), "ratio"}
	out["sim.host_per_vtime"] = metric{ratio(u.wall.Seconds(), u.vtime.Seconds()), "s/s"}
	for _, mod := range cpuModules {
		out["cpu."+mod] = metric{res.cpu[mod], "ratio"}
	}
	out["trace.traced_ops_per_s"] = metric{t.opsPerS(), "1/s"}
	out["trace.overhead_ratio"] = metric{ratio(u.opsPerS(), t.opsPerS()), "ratio"}
	return out
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checked returns how many ops the run tried and how many failed.
func (res *result) checked() (attempted, failed int) {
	for _, s := range []segment{res.warm, res.main, res.traced} {
		attempted += s.attempted
		failed += s.failed
	}
	return attempted, failed
}

func (res *result) summary() summary {
	var s summary
	s.Attempted, s.Failed = res.checked()
	s.Correct = s.Failed == 0
	if res.trace {
		s.Metrics = res.perLayer()
	} else {
		s.Metrics = res.endToEnd()
	}
	return s
}

// writeTrace writes the traced run's spans (JSON) and CPU profile
// (pprof) under dir.
func (res *result) writeTrace(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	doc := map[string]any{"workload": workload, "seed": seed, "spans": res.spans, "metrics": res.perLayer()}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", b, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", res.profile, 0o644)
}
