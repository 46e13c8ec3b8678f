package system_test

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/contend"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/system"
	"repro/internal/trace"
)

// The engine benchmarks below run one "serial" row each. The Sharded*
// names and the row name predate the engine's single serial form; they
// are kept so captured baselines (BENCH_engine.json) stay comparable.

// buildContenders builds a Table I Base machine with n contender threads
// made by prog, each given its own wset-byte region, and runs it for
// simTime.
func buildContenders(n int, wset uint64, simTime clock.Picos, prog func(st *contend.Stopper, base uint64) cpu.Program) *system.System {
	s := system.MustNew(system.DefaultConfig(system.Base))
	base := s.Alloc(uint64(n) * wset)
	st := s.Contenders(n, func(i int, st *contend.Stopper) cpu.Program {
		return prog(st, base+uint64(i)*wset)
	})
	s.Eng.RunUntil(simTime)
	st.Stop()
	return s
}

// runContenders runs buildContenders and returns the threads' issued
// memory operations and the DRAM queues' TryEnqueue rejections, for
// verification.
func runContenders(n int, wset uint64, simTime clock.Picos, prog func(st *contend.Stopper, base uint64) cpu.Program) (memOps, queueFull uint64) {
	s := buildContenders(n, wset, simTime, prog)
	for _, c := range s.CPU.Cores() {
		if t := c.Thread(); t != nil {
			memOps += t.MemOps
		}
	}
	for _, st := range s.Mem.DRAM.Stats().Channels {
		queueFull += st.QueueFull
	}
	return memOps, queueFull
}

// benchContenders reports the memory operations and queue rejections of
// one contender run as custom metrics.
func benchContenders(b *testing.B, n int, wset uint64, simTime clock.Picos, prog func(st *contend.Stopper, base uint64) cpu.Program) {
	b.Run("serial", func(b *testing.B) {
		var memOps, queueFull uint64
		for i := 0; i < b.N; i++ {
			memOps, queueFull = runContenders(n, wset, simTime, prog)
		}
		b.ReportMetric(float64(memOps), "memops")
		b.ReportMetric(float64(queueFull), "queuefull")
	})
}

// spinWset is the working set of the hit-bound contenders.
const spinWset = 16 << 10

// BenchmarkEngineShardedCores times the Fig. 13a spin-contender workload:
// 8 threads alternating compute-span chains with LLC-hit loads.
func BenchmarkEngineShardedCores(b *testing.B) {
	benchContenders(b, 8, spinWset, 4*clock.Millisecond, contend.Spin)
}

// hitLoop returns a hit-dominated contender: bursts of LLC-hit loads
// inside a 16 KB working set separated by one short compute chunk. Where
// Spin spends 4096 cycles of compute per load, hitLoop issues four loads
// per 512 cycles, so the completion stream is almost entirely LLC-hit
// deliveries.
func hitLoop(st *contend.Stopper, base uint64) cpu.Program {
	const (
		chunkCycles = 512
		burstLoads  = 4
		wsetBytes   = 16 << 10
	)
	i, phase := 0, 0
	return cpu.ProgramFunc(func() (cpu.Op, bool) {
		if st.Stopped() {
			return cpu.Op{}, false
		}
		if phase < burstLoads {
			phase++
			addr := base + uint64(i%(wsetBytes/mem.LineBytes))*mem.LineBytes
			i++
			return cpu.Op{Kind: cpu.OpLoad, Addr: addr}, true
		}
		phase = 0
		return cpu.Op{Kind: cpu.OpCompute, Cycles: chunkCycles}, true
	})
}

// BenchmarkEngineContendedHits times a hit-dominated Fig. 13-style
// workload: 16 hitLoop threads on 8 cores, so quantum rotations run
// under load and nearly every completion is an LLC-hit delivery.
func BenchmarkEngineContendedHits(b *testing.B) {
	benchContenders(b, 16, spinWset, 2*clock.Millisecond, hitLoop)
}

// hogFootprint is each memory hog's streaming footprint, as in Fig. 13b:
// far larger than the LLC, so every load misses.
const hogFootprint = 64 << 20

// veryHighHog is a Fig. 13b MemoryHog at the highest intensity.
func veryHighHog(st *contend.Stopper, base uint64) cpu.Program {
	return contend.MemoryHog(st, base, hogFootprint, contend.VeryHigh)
}

// BenchmarkEngineMemoryHogs times the Fig. 13b contender on its own:
// four VeryHigh MemoryHog threads keep the DRAM read queues full, so
// most TryEnqueues are rejected and retried after a WaitSpace wake.
func BenchmarkEngineMemoryHogs(b *testing.B) {
	benchContenders(b, 4, hogFootprint, 200*clock.Microsecond, veryHighHog)
}

// benchOpenLoop runs one open-loop Poisson load point (32 GB/s offered,
// the mixed pattern over a 1 MiB footprint) and returns its result for
// verification.
func benchOpenLoop() trace.LoadResult {
	s := system.MustNew(system.DefaultConfig(system.PIMMMU))
	gen := trace.DefaultGenConfig()
	gen.FootprintLines = 1 << 14
	gen.Base = s.Alloc(gen.FootprintBytes(trace.PatternMixed))
	recs := trace.MustGenerate(trace.PatternMixed, gen)
	dcfg := trace.DefaultDriverConfig()
	dcfg.MeanGap = 2 * clock.Nanosecond
	dcfg.Duration = 32 * clock.Microsecond
	r, err := s.RunLoad(recs, dcfg)
	if err != nil {
		panic(err)
	}
	return r
}

// BenchmarkEngineOpenLoopLoad measures the engine cost of the open-loop
// driver path — the loadcurve experiment's inner loop.
func BenchmarkEngineOpenLoopLoad(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		var completed uint64
		for i := 0; i < b.N; i++ {
			completed = benchOpenLoop().Completed
		}
		b.ReportMetric(float64(completed), "reqs")
	})
}

// TestBenchContendersDeterministic pins the contender benchmark
// workloads themselves: two runs on fresh machines agree bit for bit on
// the final clock, every thread's progress and busy time, the LLC
// hit/miss split and the engine's event count, and every thread made
// progress — so timings captured from them compare like with like.
func TestBenchContendersDeterministic(t *testing.T) {
	workloads := []struct {
		name  string
		build func() *system.System
	}{
		{"spin", func() *system.System {
			return buildContenders(8, spinWset, 2*clock.Millisecond, contend.Spin)
		}},
		{"hit-loop", func() *system.System {
			return buildContenders(16, spinWset, clock.Millisecond, hitLoop)
		}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			snap := func() string {
				s := w.build()
				out := fmt.Sprintf("now=%v fired=%d", s.Eng.Now(), s.Eng.Fired())
				for _, c := range s.CPU.Cores() {
					if th := c.Thread(); th != nil {
						if th.MemOps == 0 {
							t.Errorf("%s issued no memory operations", th.Name)
						}
						out += fmt.Sprintf(" [%s ops=%d busy=%v]", th.Name, th.MemOps, c.BusyTime())
					}
				}
				ls := s.Mem.LLC.Stats()
				out += fmt.Sprintf(" llc=%d/%d", ls.Hits, ls.Misses)
				return out
			}
			if want, got := snap(), snap(); got != want {
				t.Errorf("rerun diverged:\nwant %s\ngot  %s", want, got)
			}
		})
	}
}
