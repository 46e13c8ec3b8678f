package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workload is one named benchmark workload. A pass is set up (timed as
// a set-up sample), run (timed as the pass), then checked.
type workload interface {
	// setup prepares one pass: machines, traces, servers.
	setup() error
	// run executes the prepared pass, recording each operation's
	// latency with bench.opDone.
	run()
	// check verifies the pass's outputs, settles one verdict per
	// operation, records layer counters, and releases the pass.
	check()
	// finish runs the run-level checks after the last pass.
	finish()
}

// bench is the state of one benchmark run shared by every workload:
// the seed, failure accounting, per-operation latencies, layer
// counters and, in the traced half, spans.
type bench struct {
	workload string
	seed     uint64
	outDir   string
	ref      reference

	attempted, failed int
	failures          []string // first few failure messages

	// outputs holds the simulated outputs of the first pass, by
	// design-point name.
	outputs map[string]output

	// extra holds report lines printed before the result.
	extra []string

	mu       sync.Mutex
	opLat    []float64 // seconds, one per operation of the current pass
	opPoint  []string  // the design point of each opLat entry, "" for none
	opSecs   float64   // host seconds the pass's operations span
	counters map[string]float64
	spans    spanLog
}

func newBench(name string, seed uint64, outDir string, ref reference) *bench {
	return &bench{
		workload: name,
		seed:     seed,
		outDir:   outDir,
		ref:      ref,
		outputs:  map[string]output{},
		counters: map[string]float64{},
	}
}

// verdict collects the problems found with one operation.
type verdict struct{ problems []string }

func (v *verdict) expect(ok bool, format string, args ...any) {
	if !ok {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// settle counts one attempted operation, failed when v holds problems.
func (b *bench) settle(op string, v verdict) {
	b.settleN(op, v, 1)
}

// settleN counts n attempted operations sharing one verdict.
func (b *bench) settleN(op string, v verdict, n int) {
	b.mu.Lock()
	b.attempted += n
	b.mu.Unlock()
	b.fail(op, v, n)
}

// fail marks n already-counted operations failed when v holds
// problems: a check that can only run after the operations were
// settled.
func (b *bench) fail(op string, v verdict, n int) {
	if len(v.problems) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed += n
	if len(b.failures) < 8 {
		b.failures = append(b.failures, op+": "+v.problems[0])
	}
}

// opDone records one operation's latency. point names the design
// point the operation simulates; operations that are not design points
// (serve's round trips) pass "".
func (b *bench) opDone(point string, d time.Duration) {
	b.mu.Lock()
	b.opLat = append(b.opLat, d.Seconds())
	b.opPoint = append(b.opPoint, point)
	b.mu.Unlock()
}

// opWindow adds d to the host time over which operations completed,
// the denominator of ops_per_s.
func (b *bench) opWindow(d time.Duration) {
	b.mu.Lock()
	b.opSecs += d.Seconds()
	b.mu.Unlock()
}

// count adds v to a layer counter of the current pass.
func (b *bench) count(name string, v float64) {
	b.mu.Lock()
	b.counters[name] += v
	b.mu.Unlock()
}

// half is what one untraced or traced stretch of passes measured.
type half struct {
	setup, live, wall, cpu, alloc, gcCPU []float64

	opRate []float64 // operations per second, per pass
	opLat  []float64 // every operation's latency (seconds), all passes
	// byPoint holds each design point's latency in every pass.
	byPoint  map[string][]float64
	counters map[string][]float64
}

// passes repeats set-up, run and check, collecting one sample of each
// quantity per pass. It runs at least one pass, and starts another
// only while that pass would end less than half a pass after d has
// elapsed.
func (b *bench) passes(w workload, d time.Duration) (half, error) {
	h := half{byPoint: map[string][]float64{}, counters: map[string][]float64{}}
	deadline := time.Now().Add(d)
	var last time.Duration
	for first := true; first || time.Now().Add(last/2).Before(deadline); first = false {
		start := time.Now()
		runtime.GC()
		passSpan := b.spans.begin("pass", 0)
		b.spans.parent = passSpan
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return h, fmt.Errorf("set-up: %w", err)
		}
		h.setup = append(h.setup, time.Since(t0).Seconds())
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		h.live = append(h.live, float64(ms.HeapAlloc)/1e6)
		alloc0, cpu0, gc0 := ms.TotalAlloc, cpuSeconds(), gcSeconds()
		t1 := time.Now()
		w.run()
		wall := time.Since(t1).Seconds()
		cpu1, gc1 := cpuSeconds(), gcSeconds()
		runtime.ReadMemStats(&ms)
		h.wall = append(h.wall, wall)
		h.cpu = append(h.cpu, cpu1-cpu0)
		h.alloc = append(h.alloc, float64(ms.TotalAlloc-alloc0)/1e6)
		h.gcCPU = append(h.gcCPU, gc1-gc0)
		w.check()
		b.spans.end(passSpan)
		b.mu.Lock()
		for k, v := range b.counters {
			h.counters[k] = append(h.counters[k], v)
		}
		h.opRate = append(h.opRate, ratio(float64(len(b.opLat)), b.opSecs))
		h.opLat = append(h.opLat, b.opLat...)
		for i, p := range b.opPoint {
			if p != "" {
				h.byPoint[p] = append(h.byPoint[p], b.opLat[i])
			}
		}
		b.counters = map[string]float64{}
		b.opLat, b.opPoint, b.opSecs = nil, nil, 0
		b.mu.Unlock()
		last = time.Since(start)
	}
	return h, nil
}

// measure runs the workload for d and builds the result. Untraced, the
// whole time measures the end-to-end metrics. Traced, the first half
// runs untraced (the overhead baseline) and the second half records
// spans, a CPU profile and the JEDEC checkers, yielding the per-layer
// metrics.
func (b *bench) measure(mk func(*bench, sizes) workload, sz sizes, d time.Duration, traced bool) (result, error) {
	w := mk(b, sz)
	if !traced {
		h, err := b.passes(w, d)
		if err != nil {
			return result{}, err
		}
		w.finish()
		b.describeHalf("", h)
		return b.result(endToEnd(h)), nil
	}
	plain, err := b.passes(w, d/2)
	if err != nil {
		return result{}, err
	}
	b.describeHalf("untraced ", plain)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	b.spans.start()
	tr, err := b.passes(w, d/2)
	pprof.StopCPUProfile()
	b.spans.stop()
	if err != nil {
		return result{}, err
	}
	w.finish()
	b.describeHalf("traced ", tr)
	shares, err := selfShares(prof.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("reading the CPU profile: %w", err)
	}
	if err := b.writeTrace(prof.Bytes()); err != nil {
		return result{}, err
	}
	return b.result(b.perLayer(plain, tr, shares)), nil
}

// result packages the metrics with the run's failure accounting.
func (b *bench) result(m map[string]metric) result {
	attempted := b.attempted
	if attempted == 0 {
		attempted = 1 // an empty run reports one failed attempt
		b.failed = 1
		b.failures = append(b.failures, "no operation ran")
	}
	return result{Correct: b.failed == 0, Attempted: attempted, Failed: b.failed, Metrics: m}
}

// endToEnd reduces an untraced half to the end-to-end metrics.
// Every metric is the median over passes of a per-pass value, except
// the operation latencies. Serve's round trips are alike, so
// op_p50_ms and op_p99_ms are percentiles of every round trip of the
// run rather than per pass, whose p99 rests on its 30 slowest round
// trips alone. A simulation workload's operations are different design
// points, so a pass's median or tail falls on one or two of them and
// moves with the host noise of those alone. There each design point's
// latency is first reduced to its median over passes, and the
// percentiles are taken over those point medians.
func endToEnd(h half) map[string]metric {
	p50, p99 := median(h.opLat), quantile(h.opLat, 0.99)
	if len(h.byPoint) > 0 {
		var pts []float64
		for _, v := range h.byPoint {
			pts = append(pts, median(v))
		}
		p50, p99 = median(pts), quantile(pts, 0.99)
	}
	return map[string]metric{
		"setup_s":      {median(h.setup), "s"},
		"wall_s":       {median(h.wall), "s"},
		"cpu_s":        {median(h.cpu), "s"},
		"alloc_mb":     {median(h.alloc), "MB"},
		"live_heap_mb": {median(h.live), "MB"},
		"op_p50_ms":    {p50 * 1e3, "ms"},
		"op_p99_ms":    {p99 * 1e3, "ms"},
		"ops_per_s":    {median(h.opRate), "1/s"},
	}
}

// printReport writes the human-readable lines that precede the result:
// failures, the sample quartiles of every timing, and the output
// digest.
func (b *bench) printReport(w io.Writer, res result) {
	fmt.Fprintf(w, "workload %s seed %d: %d attempted, %d failed (fail_ratio %.6f), outputs %s\n",
		b.workload, b.seed, res.Attempted, res.Failed,
		float64(res.Failed)/float64(res.Attempted), digest(b.outputs))
	for _, f := range b.failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6f %s\n", n, m.Value, m.Unit)
	}
	for _, l := range b.extra {
		fmt.Fprintln(w, " ", l)
	}
}

// describeHalf adds the quartile lines of a half's timings to the
// report.
func (b *bench) describeHalf(prefix string, h half) {
	b.extra = append(b.extra,
		describe(prefix+"setup", h.setup, "s"),
		describe(prefix+"wall", h.wall, "s"),
		describe(prefix+"cpu", h.cpu, "s"),
		describe(prefix+"alloc", h.alloc, "MB"),
		describe(prefix+"live_heap", h.live, "MB"),
		describe(prefix+"op_latency", h.opLat, "s"))
}

// describe formats a sample's median, quartiles and count.
func describe(name string, v []float64, unit string) string {
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%-28s median %.6f %s  quartiles [%.6f, %.6f]  n=%d", name, q2, unit, q1, q3, len(v))
}

// writeTrace stores the traced half's spans and CPU profile under the
// output directory.
func (b *bench) writeTrace(profile []byte) error {
	base := filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	data, err := json.Marshal(b.spans.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+"-spans.json", data, 0o666); err != nil {
		return err
	}
	return os.WriteFile(base+"-cpu.pprof", profile, 0o666)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcSeconds is the CPU time the garbage collector has used.
func gcSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// span is one timed call into a layer, made from the benchmark's own
// code.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory while recording is on; begin and end
// are no-ops otherwise. IDs start at 1, so 0 means "no parent".
type spanLog struct {
	mu     sync.Mutex
	on     bool
	t0     time.Time
	spans  []span
	parent int // the current pass span, parent of a pass's top-level spans
}

func (l *spanLog) start() { l.on, l.t0 = true, time.Now() }
func (l *spanLog) stop()  { l.on = false }

func (l *spanLog) begin(name string, parent int) int {
	if !l.on {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartNs: time.Since(l.t0).Nanoseconds()})
	return id
}

func (l *spanLog) end(id int) {
	if id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].EndNs = time.Since(l.t0).Nanoseconds()
	l.mu.Unlock()
}

// durations lists the durations in seconds of every span named name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// median is the middle value of v (the mean of the middle two), 0 for
// an empty sample.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between the order statistics of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the
// exclusive method) for the first and third quartile, and returns the
// median between them. Fewer than two values give that value thrice.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m, m
	}
	at := func(j int) float64 {
		m := n + 1
		delta := j * m
		i := delta / 4
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		frac := float64(delta%4) / 4
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return at(1), median(s), at(3)
}
