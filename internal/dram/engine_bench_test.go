package dram

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/addrmap"
	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// benchStream drives a posted-write streaming workload across every
// channel of a device set: a host-side refiller tops the write queues up
// at a fixed cadence and the controllers drain them flat out. Posted
// writes carry no completion callback, so the measurement is dominated by
// the controllers' scheduler ticks and data-burst completions.
func benchStream(b *testing.B, channels, linesPerChannel int) {
	cfg := DefaultConfig()
	cfg.Geometry.Channels = channels
	// Deep queues and a coarse refill cadence keep the refiller's share
	// small, so the measurement is dominated by per-channel controller
	// work.
	cfg.QueueDepth = 512
	period := cfg.Timing.Domain().Period()
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		ds := MustNew(eng, cfg, "bench")
		sent := make([]int, channels)
		cols := cfg.Geometry.Cols
		// Requests recycle through a per-channel ring comfortably larger
		// than the maximum outstanding count (queue depth + completions
		// in flight), so steady state allocates nothing.
		rings := make([][]mem.Req, channels)
		for ch := range rings {
			rings[ch] = make([]mem.Req, 2*cfg.QueueDepth)
		}
		var refill func()
		refill = func() {
			live := false
			for ch := 0; ch < channels; ch++ {
				c := ds.Channel(ch)
				for sent[ch] < linesPerChannel {
					n := sent[ch]
					req := &rings[ch][n%len(rings[ch])]
					req.Addr = uint64(n) * mem.LineBytes
					req.Kind = mem.Write
					loc := addrmap.Loc{
						Channel: ch,
						Rank:    n % cfg.Geometry.Ranks,
						Row:     n / cols % cfg.Geometry.Rows,
						Col:     n % cols,
					}
					if !c.TryEnqueue(req, loc) {
						break
					}
					sent[ch]++
				}
				if sent[ch] < linesPerChannel {
					live = true
				}
			}
			if live {
				eng.After(1024*period, refill)
			}
		}
		refill()
		eng.Run()
		var wrote uint64
		for _, c := range ds.Channels() {
			wrote += c.Stats().Writes
		}
		if want := uint64(channels * linesPerChannel); wrote != want {
			b.Fatalf("wrote %d lines, want %d", wrote, want)
		}
	}
	bytes := int64(channels * linesPerChannel * mem.LineBytes)
	b.SetBytes(bytes)
}

// BenchmarkEngineShardedChannels times an 8-channel posted-write stream
// on the event engine. The name predates the engine's single serial
// form; it is kept so captured baselines stay comparable.
func BenchmarkEngineShardedChannels(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchStream(b, 8, 1<<13) })
}

// BenchmarkEngineScheduler times the FR-FCFS scheduler on one channel at
// the Table I queue depth: a mixed 70/30 read/write stream to random
// banks and rows keeps both queues topped up, so nearly every tick scans
// a full window. One op is one request; ns/cmd divides the time by every
// command issued (ACT, PRE, RD, WR, REF).
func BenchmarkEngineScheduler(b *testing.B) {
	for _, window := range []int{8, 24, 64} {
		b.Run(fmt.Sprintf("window%d", window), func(b *testing.B) {
			benchScheduler(b, window)
		})
	}
}

func benchScheduler(b *testing.B, window int) {
	cfg := DefaultConfig()
	cfg.Geometry.Channels = 1
	cfg.ScanWindow = window
	eng := sim.New()
	ch := MustNew(eng, cfg, "bench").Channel(0)
	g := cfg.Geometry
	rng := rand.New(rand.NewSource(1))
	// Requests return to a free stack when they complete, and locations
	// come from a precomputed table, so the timed loop allocates nothing.
	reqs := make([]mem.Req, 4*cfg.QueueDepth)
	free := make([]*mem.Req, 0, len(reqs))
	for i := range reqs {
		req := &reqs[i]
		req.OnDone = func(clock.Picos) { free = append(free, req) }
		free = append(free, req)
	}
	locs := make([]addrmap.Loc, 4096)
	kinds := make([]mem.Kind, len(locs))
	for i := range locs {
		locs[i] = addrmap.Loc{
			Rank:      rng.Intn(g.Ranks),
			BankGroup: rng.Intn(g.BankGroups),
			Bank:      rng.Intn(g.Banks),
			Row:       rng.Intn(64),
			Col:       rng.Intn(g.Cols),
		}
		if rng.Intn(10) < 3 {
			kinds[i] = mem.Write
		}
	}
	period := cfg.Timing.Domain().Period()
	sent := 0
	var refill func()
	refill = func() {
		for sent < b.N && len(free) > 0 {
			req := free[len(free)-1]
			req.Kind = kinds[sent%len(kinds)]
			if !ch.TryEnqueue(req, locs[sent%len(locs)]) {
				break
			}
			free = free[:len(free)-1]
			sent++
		}
		if sent < b.N {
			eng.After(16*period, refill)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	refill()
	eng.Run()
	b.StopTimer()
	s := ch.Stats()
	if s.Reads+s.Writes != uint64(b.N) {
		b.Fatalf("served %d requests, want %d", s.Reads+s.Writes, b.N)
	}
	cmds := s.Acts + s.Pres + s.Reads + s.Writes + s.Refs
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cmds), "ns/cmd")
}

// TestBenchStreamDeterministic pins the benchmark workload itself: every
// channel drains every posted line, and two runs on fresh engines end
// with identical per-channel command counts and the same final clock, so
// timings captured from it compare like with like.
func TestBenchStreamDeterministic(t *testing.T) {
	const channels, lines = 4, 2048
	run := func() []string {
		cfg := DefaultConfig()
		cfg.Geometry.Channels = channels
		eng := sim.New()
		ds := MustNew(eng, cfg, "bench")
		sent := make([]int, channels)
		period := cfg.Timing.Domain().Period()
		var refill func()
		refill = func() {
			live := false
			for ch := 0; ch < channels; ch++ {
				c := ds.Channel(ch)
				for sent[ch] < lines {
					n := sent[ch]
					req := &mem.Req{Addr: uint64(n) * mem.LineBytes, Kind: mem.Write}
					loc := addrmap.Loc{
						Channel: ch,
						Rank:    n % cfg.Geometry.Ranks,
						Row:     n / cfg.Geometry.Cols % cfg.Geometry.Rows,
						Col:     n % cfg.Geometry.Cols,
					}
					if !c.TryEnqueue(req, loc) {
						break
					}
					sent[ch]++
				}
				if sent[ch] < lines {
					live = true
				}
			}
			if live {
				eng.After(128*period, refill)
			}
		}
		refill()
		eng.Run()
		var out []string
		for i, c := range ds.Channels() {
			s := c.Stats()
			if s.Writes != lines {
				t.Errorf("ch%d wrote %d lines, want %d", i, s.Writes, lines)
			}
			out = append(out, fmt.Sprintf("ch%d w=%d acts=%d pres=%d refs=%d hits=%d conf=%d bytes=%d end=%v",
				i, s.Writes, s.Acts, s.Pres, s.Refs, s.RowHits, s.RowConflicts, s.BytesWritten, eng.Now()))
		}
		return out
	}
	want := run()
	got := run()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rerun diverged: %s != %s", got[i], want[i])
		}
	}
}
