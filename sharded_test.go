// Sweep-sharding invariant tests: a sweep shards its design points
// across worker goroutines (sweep.MapN), each job building and running
// its own machine on its own event engine. A machine's results must not
// depend on that split — on whether it ran alone or next to other
// machines on other goroutines — so every test here runs the same jobs
// as one shard (one worker) and sharded across several workers, and
// requires the results to match field for field. Each test covers a
// path the transfer, golden and synthetic-replay sweep checks do not:
// unlike workloads sharing one pool, contended transfers, non-cacheable
// replay, the open-loop driver, the trace-driven experiments, and the
// PIM-region replay path.
package pimmmu_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/trace"
)

// sweepShards is the worker count of the sharded side of every check.
const sweepShards = 4

// shardedRuns runs n jobs as one shard and sharded across sweepShards
// workers, returning both result sets in index order.
func shardedRuns[R any](n int, job func(i int) R) (serial, sharded []R) {
	return sweep.MapN(n, 1, job), sweep.MapN(n, sweepShards, job)
}

// TestShardedCommandStreamIdentical renders unlike workloads — the
// Base and PIM-MMU transfer command streams and the contender-heavy
// stream — in one sweep, so different machines share the worker pool,
// and requires every rendering to be byte-identical to its one-shard
// run.
func TestShardedCommandStreamIdentical(t *testing.T) {
	jobs := []struct {
		name   string
		render func() string
	}{
		{"base", func() string { return commandStream(system.Base) }},
		{"pim-mmu", func() string { return commandStream(system.PIMMMU) }},
		{"contended", contendedStream},
	}
	serial, sharded := shardedRuns(len(jobs), func(i int) string { return jobs[i].render() })
	for i, j := range jobs {
		if serial[i] != sharded[i] {
			t.Errorf("%s: command stream diverged\n--- one shard ---\n%s--- %d shards ---\n%s",
				j.name, serial[i], sweepShards, sharded[i])
		}
	}
}

// TestShardedReplayResultIdentical replays synthetic traces through the
// non-cacheable DRAM path with a tight in-flight window (so the
// backpressure metrics are exercised) and requires the full
// trace.Result — counts, bytes, timestamps, latency sum and histogram,
// backpressure — to match field for field.
func TestShardedReplayResultIdentical(t *testing.T) {
	patterns := []trace.Pattern{trace.PatternStream, trace.PatternChase}
	designs := []system.Design{system.Base, system.PIMMMU}
	g := sweep.NewGrid(len(patterns), len(designs))
	gen := trace.DefaultGenConfig()
	gen.Records = 1 << 11
	gen.FootprintLines = 1 << 14
	rcfg := trace.DefaultReplayConfig()
	rcfg.MaxInFlight = 8
	rcfg.Cacheable = false
	serial, sharded := shardedRuns(g.Size(), func(i int) trace.Result {
		s := system.MustNew(system.DefaultConfig(designs[g.Coord(i, 1)]))
		gc := gen
		p := patterns[g.Coord(i, 0)]
		gc.Base = s.Alloc(gc.FootprintBytes(p))
		r, err := s.RunReplay(trace.MustGenerate(p, gc), rcfg)
		if err != nil {
			panic(err)
		}
		return r
	})
	for i := range serial {
		p, d := patterns[g.Coord(i, 0)], designs[g.Coord(i, 1)]
		if serial[i].Completed != uint64(gen.Records) {
			t.Errorf("%s on %v: completed %d of %d records", p, d, serial[i].Completed, gen.Records)
		}
		if !reflect.DeepEqual(serial[i], sharded[i]) {
			t.Errorf("%s on %v: trace.Result diverged:\none shard: %+v\nsharded:   %+v",
				p, d, serial[i], sharded[i])
		}
	}
}

// TestShardedLoadResultIdentical drives open-loop Poisson points on both
// designs at two offered loads and requires the full trace.LoadResult —
// arrival/issue/completion counts, the queue/service/total latency split
// with all three histograms, and the backpressure metrics — to match
// field for field.
func TestShardedLoadResultIdentical(t *testing.T) {
	designs := []system.Design{system.Base, system.PIMMMU}
	gaps := []clock.Picos{4 * clock.Nanosecond, 16 * clock.Nanosecond}
	g := sweep.NewGrid(len(designs), len(gaps))
	gen := trace.DefaultGenConfig()
	gen.Records = 1 << 11
	gen.FootprintLines = 1 << 14
	serial, sharded := shardedRuns(g.Size(), func(i int) trace.LoadResult {
		s := system.MustNew(system.DefaultConfig(designs[g.Coord(i, 0)]))
		gc := gen
		gc.Base = s.Alloc(gc.FootprintBytes(trace.PatternMixed))
		dcfg := trace.DefaultDriverConfig()
		dcfg.MeanGap = gaps[g.Coord(i, 1)]
		dcfg.Duration = 8 * clock.Microsecond
		r, err := s.RunLoad(trace.MustGenerate(trace.PatternMixed, gc), dcfg)
		if err != nil {
			panic(err)
		}
		return r
	})
	for i := range serial {
		d, gap := designs[g.Coord(i, 0)], gaps[g.Coord(i, 1)]
		if serial[i].Completed == 0 {
			t.Errorf("%v gap %v: no request completed", d, gap)
		}
		if !reflect.DeepEqual(serial[i], sharded[i]) {
			t.Errorf("%v gap %v: trace.LoadResult diverged:\none shard: %+v\nsharded:   %+v",
				d, gap, serial[i], sharded[i])
		}
	}
}

// TestShardedTransferMetricsIdentical runs transfers co-located with
// spin contenders — CPU threads, the transfer engine and the memory
// system all active at once — on both designs in both directions, and
// compares the transfer result plus every channel and LLC counter.
func TestShardedTransferMetricsIdentical(t *testing.T) {
	designs := []system.Design{system.Base, system.PIMMMU}
	dirs := []core.Direction{core.DRAMToPIM, core.PIMToDRAM}
	g := sweep.NewGrid(len(designs), len(dirs))
	serial, sharded := shardedRuns(g.Size(), func(i int) string {
		s := system.MustNew(system.DefaultConfig(designs[g.Coord(i, 0)]))
		const nSpin, wset = 4, 16 << 10
		spinBase := s.Alloc(nSpin * wset)
		st := s.Contenders(nSpin, func(k int, st *contend.Stopper) cpu.Program {
			return contend.Spin(st, spinBase+uint64(k)*wset)
		})
		per := (256 << 10) / uint64(s.Cfg.PIM.NumCores()) &^ 63
		res := s.RunTransfer(s.TransferOp(dirs[g.Coord(i, 1)], s.Cfg.PIM.NumCores(), per))
		st.Stop()
		var b strings.Builder
		fmt.Fprintf(&b, "%+v\n", res)
		machineFingerprint(&b, s)
		return b.String()
	})
	for i := range serial {
		if serial[i] != sharded[i] {
			t.Errorf("%v %v: contended transfer metrics diverged\n--- one shard ---\n%s--- %d shards ---\n%s",
				designs[g.Coord(i, 0)], dirs[g.Coord(i, 1)], serial[i], sweepShards, sharded[i])
		}
	}
}

// TestShardedExperimentOutputIdentical renders the trace-driven harness
// experiments (replay and loadcurve) with the sweep run as one shard and
// sharded; the printed artifacts must not change. Fig8 has the same
// tier-1 check in determinism_test.go.
func TestShardedExperimentOutputIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment render in -short mode")
	}
	for _, name := range []string{"replay", "loadcurve"} {
		e, ok := harness.ByName(name)
		if !ok {
			t.Fatalf("%s experiment not registered", name)
		}
		render := func(workers int) []byte {
			r := &harness.Runner{Workers: workers}
			var b bytes.Buffer
			r.Run(e, &b, harness.Quick)
			return b.Bytes()
		}
		if want, got := render(1), render(sweepShards); !bytes.Equal(want, got) {
			t.Errorf("%s output diverged\n--- one shard ---\n%s--- %d shards ---\n%s",
				name, want, sweepShards, got)
		}
	}
}

// TestShardedPIMRegionReplay covers the non-cacheable PIM-region replay
// path (no LLC in front of the channels): every PIM channel runs under
// the independent JEDEC checker with zero violations allowed, and the
// one-shard and sharded sweeps of the same replays return identical
// results.
func TestShardedPIMRegionReplay(t *testing.T) {
	gen := trace.DefaultGenConfig()
	gen.Records = 1 << 10
	gen.FootprintLines = 1 << 12
	gen.Base = mem.PIMBase
	gen.WritePercent = 100
	recs := trace.MustGenerate(trace.PatternMixed, gen)
	designs := []system.Design{system.Base, system.PIMMMU}

	type outcome struct {
		res        trace.Result
		violations []string
	}
	serial, sharded := shardedRuns(len(designs), func(i int) outcome {
		cfg := system.DefaultConfig(designs[i])
		s := system.MustNew(cfg)
		checkers := make([]*dram.Checker, cfg.Mem.PIM.Geometry.Channels)
		for ch := range checkers {
			checkers[ch] = dram.NewChecker(cfg.Mem.PIM)
			s.Mem.PIM.Channel(ch).Observe(checkers[ch])
		}
		r, err := s.RunReplay(recs, trace.DefaultReplayConfig())
		if err != nil {
			panic(err)
		}
		var out outcome
		out.res = r
		for _, c := range checkers {
			out.violations = append(out.violations, c.Violations()...)
		}
		return out
	})
	for i, d := range designs {
		got := serial[i]
		if n := len(got.violations); n != 0 {
			t.Errorf("%v: %d JEDEC violations, first: %s", d, n, got.violations[0])
		}
		if got.res.Completed != uint64(len(recs)) || got.res.BytesWritten == 0 {
			t.Errorf("%v: replay completed %d of %d requests, wrote %d bytes",
				d, got.res.Completed, len(recs), got.res.BytesWritten)
		}
		if !reflect.DeepEqual(got.res, sharded[i].res) {
			t.Errorf("%v: trace.Result differs between one-shard and sharded sweeps:\none shard: %+v\nsharded:   %+v",
				d, got.res, sharded[i].res)
		}
	}
}
