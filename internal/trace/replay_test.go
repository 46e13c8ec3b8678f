package trace

import (
	"math"
	"testing"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// fakePort is a minimal mem.Port: fixed service latency, bounded queue,
// FIFO WaitSpace wakeups. It records accepted requests for order and
// occupancy assertions.
type fakePort struct {
	eng     *sim.Engine
	lat     clock.Picos
	cap     int
	inQ     int
	maxInQ  int
	waiters []func()

	addrs []uint64
	kinds []mem.Kind
}

func newFakePort(eng *sim.Engine, lat clock.Picos, capacity int) *fakePort {
	return &fakePort{eng: eng, lat: lat, cap: capacity}
}

func (p *fakePort) TryEnqueue(r *mem.Req) bool {
	if p.inQ >= p.cap {
		return false
	}
	p.inQ++
	if p.inQ > p.maxInQ {
		p.maxInQ = p.inQ
	}
	p.addrs = append(p.addrs, r.Addr)
	p.kinds = append(p.kinds, r.Kind)
	done := r.OnDone
	p.eng.After(p.lat, func() {
		p.inQ--
		if done != nil {
			done(p.eng.Now())
		}
		if len(p.waiters) > 0 {
			w := p.waiters[0]
			p.waiters = p.waiters[:copy(p.waiters, p.waiters[1:])]
			w()
		}
	})
	return true
}

func (p *fakePort) WaitSpace(fn func()) { p.waiters = append(p.waiters, fn) }

// runReplay drives a replay to completion on a fresh engine.
func runReplay(t *testing.T, recs []Record, cfg ReplayConfig, lat clock.Picos, capacity int) (Result, *fakePort) {
	t.Helper()
	eng := sim.New()
	port := newFakePort(eng, lat, capacity)
	rp, err := NewReplayer(eng, port, recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	done := false
	rp.Start(func(r Result) { res = r; done = true })
	eng.Run()
	if !done {
		t.Fatal("replay never completed")
	}
	return res, port
}

func TestReplayCompletesAndTimes(t *testing.T) {
	const gap = 10 * clock.Nanosecond
	const lat = 3 * clock.Nanosecond
	recs := []Record{
		{TSC: 0, Kind: KindRead, Addr: 0, Bytes: 64},
		{TSC: gap, Kind: KindWrite, Addr: 64, Bytes: 64},
		{TSC: 2 * gap, Kind: KindRead, Addr: 4096, Bytes: 64},
	}
	res, port := runReplay(t, recs, DefaultReplayConfig(), lat, 64)
	if res.Issued != 3 || res.Completed != 3 {
		t.Errorf("issued/completed = %d/%d, want 3/3", res.Issued, res.Completed)
	}
	if res.BytesRead != 128 || res.BytesWritten != 64 {
		t.Errorf("bytes = %d/%d, want 128/64", res.BytesRead, res.BytesWritten)
	}
	// No contention: every record issues exactly at its TSC and
	// completes one service latency later.
	if res.End != 2*gap+lat {
		t.Errorf("End = %v, want %v", res.End, 2*gap+lat)
	}
	if res.AvgLatency() != lat {
		t.Errorf("AvgLatency = %v, want %v", res.AvgLatency(), lat)
	}
	if res.Retries != 0 || res.Slip != 0 {
		t.Errorf("uncontended replay reported pressure: %d retries, %v slip", res.Retries, res.Slip)
	}
	if want := []mem.Kind{mem.Read, mem.Write, mem.Read}; len(port.kinds) != 3 ||
		port.kinds[0] != want[0] || port.kinds[1] != want[1] || port.kinds[2] != want[2] {
		t.Errorf("kinds = %v, want %v", port.kinds, want)
	}
}

// A multi-line record expands to consecutive line requests.
func TestReplayExpandsMultiLineRecords(t *testing.T) {
	recs := []Record{{TSC: 0, Kind: KindRead, Addr: 1 << 12, Bytes: 4 * 64}}
	res, port := runReplay(t, recs, DefaultReplayConfig(), clock.Nanosecond, 64)
	if res.Issued != 4 {
		t.Fatalf("issued %d line requests, want 4", res.Issued)
	}
	for i, a := range port.addrs {
		if want := uint64(1<<12) + uint64(i)*64; a != want {
			t.Errorf("line %d at 0x%x, want 0x%x", i, a, want)
		}
	}
}

// With a single-entry queue every request is serialized through
// backpressure: order is preserved, retries are counted, and the run
// takes one service latency per request.
func TestReplayBackpressureSerializes(t *testing.T) {
	const n = 16
	const lat = 5 * clock.Nanosecond
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{TSC: 0, Kind: KindRead, Addr: uint64(i) * 64, Bytes: 64}
	}
	res, port := runReplay(t, recs, DefaultReplayConfig(), lat, 1)
	if res.Completed != n {
		t.Fatalf("completed %d, want %d", res.Completed, n)
	}
	if res.End != n*lat {
		t.Errorf("End = %v, want %v (fully serialized)", res.End, clock.Picos(n)*lat)
	}
	if res.Retries != n-1 {
		t.Errorf("retries = %d, want %d", res.Retries, n-1)
	}
	// Every line was due at 0 and line k issued at k*lat: the last line
	// lagged furthest.
	if res.Slip != (n-1)*lat {
		t.Errorf("Slip = %v, want %v", res.Slip, clock.Picos(n-1)*lat)
	}
	for i, a := range port.addrs {
		if a != uint64(i)*64 {
			t.Fatalf("order broken at %d: 0x%x", i, a)
		}
	}
}

// MaxInFlight caps the replayer's own outstanding requests even when
// the port has room.
func TestReplayInFlightCap(t *testing.T) {
	recs := make([]Record, 64)
	for i := range recs {
		recs[i] = Record{TSC: 0, Kind: KindRead, Addr: uint64(i) * 64, Bytes: 64}
	}
	cfg := DefaultReplayConfig()
	cfg.MaxInFlight = 2
	res, port := runReplay(t, recs, cfg, 7*clock.Nanosecond, 1024)
	if res.Completed != 64 {
		t.Fatalf("completed %d, want 64", res.Completed)
	}
	if port.maxInQ > 2 {
		t.Errorf("port saw %d outstanding, want <= MaxInFlight 2", port.maxInQ)
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	res, _ := runReplay(t, nil, DefaultReplayConfig(), clock.Nanosecond, 4)
	if res.Issued != 0 || res.Completed != 0 || res.Duration() != 0 {
		t.Errorf("empty replay produced %+v", res)
	}
}

func TestReplayerRejectsBadInput(t *testing.T) {
	eng := sim.New()
	port := newFakePort(eng, clock.Nanosecond, 4)
	bad := ReplayConfig{MaxInFlight: 0}
	if _, err := NewReplayer(eng, port, nil, bad); err == nil {
		t.Error("MaxInFlight=0 accepted")
	}
	warped := []Record{
		{TSC: 10, Kind: KindRead, Addr: 0, Bytes: 64},
		{TSC: 5, Kind: KindRead, Addr: 64, Bytes: 64},
	}
	if _, err := NewReplayer(eng, port, warped, DefaultReplayConfig()); err == nil {
		t.Error("time-warped trace accepted")
	}
}

// Replays are pure functions of (trace, port behaviour, config): two
// fresh engines produce identical results field for field.
func TestReplayDeterministic(t *testing.T) {
	cfg := testGenConfig()
	cfg.Records = 2048
	recs := MustGenerate(PatternMixed, cfg)
	a, _ := runReplay(t, recs, DefaultReplayConfig(), 9*clock.Nanosecond, 8)
	b, _ := runReplay(t, recs, DefaultReplayConfig(), 9*clock.Nanosecond, 8)
	if a != b {
		t.Errorf("reruns differ:\n%+v\n%+v", a, b)
	}
}

// TestLatencyHistBuckets pins the log-linear bucketing rule: exact
// buckets below histSubBuckets, then histSubBuckets sub-buckets per
// power-of-two octave, with quantiles resolving to inclusive bucket
// upper edges.
func TestLatencyHistBuckets(t *testing.T) {
	var h LatencyHist
	h.Observe(0) // exact bucket 0
	h.Observe(1) // exact bucket 1
	h.Observe(5) // exact bucket 5
	h.Observe(7) // exact bucket 7
	if h.N != 4 {
		t.Fatalf("N = %d, want 4", h.N)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[5] != 1 || h.Counts[7] != 1 {
		t.Fatalf("counts = %v", h.Counts[:8])
	}
	if got := h.Quantile(0.25); got != 0 {
		t.Errorf("q25 = %v, want 0", got)
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("q50 = %v, want 1", got)
	}
	if got := h.Quantile(0.75); got != 5 {
		t.Errorf("q75 = %v, want 5", got)
	}
	if got := h.Quantile(1.0); got != 7 {
		t.Errorf("q100 = %v, want 7", got)
	}
	// A value in a higher octave lands in a sub-bucket an eighth of the
	// octave wide: 100 is in [96,103], not the whole [64,128) octave.
	var big LatencyHist
	big.Observe(100)
	if got := big.Quantile(1.0); got != 103 {
		t.Errorf("q100 of {100} = %v, want sub-bucket edge 103", got)
	}
	var empty LatencyHist
	if empty.P50() != 0 || empty.P95() != 0 || empty.P99() != 0 || empty.P999() != 0 {
		t.Error("empty histogram quantiles must be 0")
	}
}

// TestLatencyHistBucketRoundTrip checks bucketOf/BucketMax agree over
// every bucket: each bucket's upper edge maps back to that bucket, and
// the next value maps to the next bucket.
func TestLatencyHistBucketRoundTrip(t *testing.T) {
	for i := 0; i < LatencyBuckets; i++ {
		edge := BucketMax(i)
		if got := bucketOf(uint64(edge)); got != i {
			t.Fatalf("bucketOf(BucketMax(%d)=%v) = %d", i, edge, got)
		}
		if i+1 < LatencyBuckets {
			if got := bucketOf(uint64(edge) + 1); got != i+1 {
				t.Fatalf("bucketOf(%v+1) = %d, want %d", edge, got, i+1)
			}
		}
	}
	if got := BucketMax(LatencyBuckets - 1); got != clock.Picos(math.MaxInt64) {
		t.Errorf("top bucket edge = %v, want max Picos", got)
	}
}

// TestLatencyHistQuantileBounds checks the quantile is an upper bound
// that tightens to the sample's sub-bucket: at most an eighth of the
// value above it, not the previous layout's 2x.
func TestLatencyHistQuantileBounds(t *testing.T) {
	var h LatencyHist
	for i := 1; i <= 100; i++ {
		h.Observe(clock.Picos(i) * 100) // 100..10000 ps
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		exact := clock.Picos(q*100) * 100
		if got < exact {
			t.Errorf("q%.0f = %v below the exact value %v", q*100, got, exact)
		}
		if got > exact+exact/histSubBuckets {
			t.Errorf("q%.0f = %v looser than %d/%d of the exact value %v",
				q*100, got, histSubBuckets+1, histSubBuckets, exact)
		}
	}
}

// TestLatencyHistQuantileIntegerRank is the regression for the float
// rank bug: the old rank uint64(q*float64(N)) with a float ceil fixup
// over-counted by one whenever q*N landed exactly on an integer that
// float rounding nudged upward (0.55*20 = 11.000000000000002 ranked 12,
// 0.1*10 ranked 2). Integer arithmetic must return the exact bucket at
// every cumulative-count edge.
func TestLatencyHistQuantileIntegerRank(t *testing.T) {
	// 11 samples at 1, 9 at 5: rank(0.55) = ceil(0.55*20) = 11, the
	// last sample of bucket 1. The float rank said 12 and skipped to 5.
	var h LatencyHist
	for i := 0; i < 11; i++ {
		h.Observe(1)
	}
	for i := 0; i < 9; i++ {
		h.Observe(5)
	}
	if got := h.Quantile(0.55); got != 1 {
		t.Errorf("q55 of 11x{1}+9x{5} = %v, want 1 (rank 11 is still in bucket 1)", got)
	}
	// One sample in each exact bucket value 0..9: q = k/10 must resolve
	// to value k-1 for every k — each q*N lands exactly on a
	// cumulative-count edge.
	var u LatencyHist
	for v := 0; v < 10; v++ {
		u.Observe(clock.Picos(v))
	}
	for k := 1; k <= 10; k++ {
		q := float64(k) / 10
		if got := u.Quantile(q); got != clock.Picos(k-1) {
			t.Errorf("q=%g of {0..9} = %v, want %d", q, got, k-1)
		}
	}
	// The same edges for every bucket of a larger histogram: k samples
	// below a marker bucket, the rest above; q = k/N must stay below.
	const n = 64
	for k := 1; k < n; k++ {
		var b LatencyHist
		for i := 0; i < k; i++ {
			b.Observe(2)
		}
		for i := k; i < n; i++ {
			b.Observe(6)
		}
		if got := b.Quantile(float64(k) / n); got != 2 {
			t.Errorf("q=%d/%d of %dx{2}+%dx{6} = %v, want 2", k, n, k, n-k, got)
		}
	}
}

// TestLatencyHistP999 checks the new tail quantile distinguishes a
// 1-in-1000 outlier population from the body.
func TestLatencyHistP999(t *testing.T) {
	var h LatencyHist
	for i := 0; i < 9990; i++ {
		h.Observe(10)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000)
	}
	if got := h.P999(); got != 10 {
		t.Errorf("p99.9 = %v, want 10 (rank 9990 is the last body sample)", got)
	}
	if got := h.Quantile(0.9999); got < 1_000_000 {
		t.Errorf("p99.99 = %v, want an outlier bucket edge >= 1000000", got)
	}
}

// TestReplayLatencyHistogram checks the replayer populates the histogram
// consistently with the scalar latency counters: a contention-free run
// has every sample equal to the service latency, so every percentile
// lands in that sample's bucket.
func TestReplayLatencyHistogram(t *testing.T) {
	const gap = 10 * clock.Nanosecond
	const lat = 3 * clock.Nanosecond
	recs := []Record{
		{TSC: 0, Kind: KindRead, Addr: 0, Bytes: 64},
		{TSC: gap, Kind: KindWrite, Addr: 64, Bytes: 64},
		{TSC: 2 * gap, Kind: KindRead, Addr: 4096, Bytes: 64},
	}
	res, _ := runReplay(t, recs, DefaultReplayConfig(), lat, 64)
	if res.Latency.N != res.Completed {
		t.Fatalf("histogram saw %d samples, completed %d", res.Latency.N, res.Completed)
	}
	p50, p99 := res.Latency.P50(), res.Latency.P99()
	if p50 != p99 {
		t.Errorf("uniform latencies but p50 %v != p99 %v", p50, p99)
	}
	if p50 < lat || p50 > lat+lat/histSubBuckets {
		t.Errorf("p50 bound %v outside [%v, %v]", p50, lat, lat+lat/histSubBuckets)
	}
}

// TestReplayerStartTwicePanics pins the reuse contract: a Replayer
// replays once, and a second Start panics instead of silently resuming
// from stale cursors with accumulated counters.
func TestReplayerStartTwicePanics(t *testing.T) {
	eng := sim.New()
	port := newFakePort(eng, clock.Nanosecond, 4)
	recs := []Record{{TSC: 0, Kind: KindRead, Addr: 0, Bytes: 64}}
	rp, err := NewReplayer(eng, port, recs, DefaultReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	rp.Start(nil)
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Error("second Start did not panic")
		}
	}()
	rp.Start(nil)
}
