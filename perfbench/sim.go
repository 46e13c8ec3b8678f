package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	pimmmu "repro"
	"repro/internal/clock"
	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/system"
	"repro/internal/trace"
)

// simPoint is one design point of a simulation workload: a fresh
// machine built in set-up and run once in the pass.
type simPoint struct {
	name     string
	sys      *system.System
	checkers []*dram.Checker
	before   energy.Activity
	// run simulates the point and returns its duration and byte count.
	run func() output
	// after checks the point's own invariants once it has run.
	after func(v *verdict)
	out   output
}

// simWorkload runs its design points one at a time on one goroutine.
type simWorkload struct {
	b      *bench
	build  func(w *simWorkload) error
	done   func() // run-level checks, if any
	points []*simPoint
}

func (w *simWorkload) finish() {
	if w.done != nil {
		w.done()
	}
}

func (w *simWorkload) setup() error {
	w.points = nil
	return w.build(w)
}

// machine builds one design point's machine, seeded by the run's seed.
// In the traced half every DRAM and PIM channel gets a JEDEC checker.
func (w *simWorkload) machine(d system.Design) (*system.System, []*dram.Checker, error) {
	cfg := system.DefaultConfig(d)
	cfg.Mem.PageSeed = w.b.seed
	sp := w.b.spans.begin("system.New", w.b.spans.parent)
	s, err := system.New(cfg)
	w.b.spans.end(sp)
	if err != nil {
		return nil, nil, err
	}
	var cks []*dram.Checker
	if w.b.spans.on {
		for _, set := range []*dram.DeviceSet{s.Mem.DRAM, s.Mem.PIM} {
			for _, ch := range set.Channels() {
				ck := dram.NewChecker(set.Config())
				ch.Observe(ck)
				cks = append(cks, ck)
			}
		}
	}
	return s, cks, nil
}

// add registers a built point; run and after are set by the caller.
func (w *simWorkload) add(name string, s *system.System, cks []*dram.Checker) *simPoint {
	p := &simPoint{name: name, sys: s, checkers: cks, before: s.Activity()}
	w.points = append(w.points, p)
	return p
}

func (w *simWorkload) run() {
	for _, p := range w.points {
		sp := w.b.spans.begin("point "+p.name, w.b.spans.parent)
		t := time.Now()
		p.out = p.run()
		d := time.Since(t)
		w.b.spans.end(sp)
		w.b.opDone(p.name, d)
		w.b.opWindow(d)
		s := p.sys
		ds, ps := s.Mem.DRAM.Stats(), s.Mem.PIM.Stats()
		p.out.DRAMCAS, p.out.DRAMActs = ds.CAS(), ds.Acts()
		p.out.PIMCAS, p.out.PIMActs = ps.CAS(), ps.Acts()
		p.out.EnergyJ = s.EnergyOver(p.before, s.Activity()).Total()
	}
}

func (w *simWorkload) check() {
	b := w.b
	for _, p := range w.points {
		var v verdict
		p.after(&v)
		// Let stopped threads exit and the memory system drain; a
		// finished transfer or load with no threads left is already
		// drained.
		s := p.sys
		s.Eng.RunWhile(func() bool { return s.CPU.Runnable() > 0 || !s.Mem.Idle() })
		v.expect(s.Mem.DRAM.Idle() && s.Mem.PIM.Idle(), "device sets not idle at drain")
		for _, set := range []*dram.DeviceSet{s.Mem.DRAM, s.Mem.PIM} {
			for i, st := range set.Stats().Channels {
				var bySrc uint64
				for _, n := range st.BytesBySrc {
					bySrc += n
				}
				v.expect(bySrc == st.TotalBytes(), "%s channel %d: BytesBySrc sums to %d, channel moved %d",
					set.Name(), i, bySrc, st.TotalBytes())
			}
		}
		b.record(p.name, p.out, &v)
		b.settle(p.name, v)
		w.countLayers(s)
		for _, ck := range p.checkers {
			if viol := ck.Violations(); len(viol) > 0 {
				// Each violation is one failed operation.
				b.settleN(p.name+" JEDEC", verdict{problems: viol}, len(viol))
				b.count("dram.jedec_violations", float64(len(viol)))
			}
		}
	}
	w.points = nil
}

// countLayers folds one machine's layer counters into the pass.
func (w *simWorkload) countLayers(s *system.System) {
	b := w.b
	b.count("sim.events", float64(s.Eng.Fired()))
	for _, set := range []*dram.DeviceSet{s.Mem.DRAM, s.Mem.PIM} {
		for _, st := range set.Stats().Channels {
			b.count("dram.cmds", float64(st.Reads+st.Writes+st.Acts+st.Pres+st.Refs))
			b.count("dram.row_hits", float64(st.RowHits))
			b.count("dram.row_cas", float64(st.RowHits+st.RowMisses+st.RowConflicts))
			b.count("dram.queue_full", float64(st.QueueFull))
		}
	}
	ls := s.Mem.LLC.Stats()
	b.count("cache.llc_hits", float64(ls.Hits))
	b.count("cache.llc_accesses", float64(ls.Hits+ls.Misses))
	var busy clock.Picos
	for _, c := range s.CPU.Cores() {
		busy += c.BusyTime()
	}
	b.count("cpu.busy_ps", float64(busy))
	b.count("cpu.core_ps", float64(s.Eng.Now())*float64(s.Cfg.CPU.Cores))
}

// transferPoint runs op on the point's machine, then calls done if it
// is not nil, and checks the transfer moved every byte.
func transferPoint(p *simPoint, op core.Op, done func()) {
	want := op.BytesPerCore * uint64(len(op.Cores))
	var res system.XferResult
	p.run = func() output {
		res = p.sys.RunTransfer(op)
		if done != nil {
			done()
		}
		return output{DurationPs: int64(res.Duration), Bytes: res.Bytes}
	}
	p.after = func(v *verdict) {
		v.expect(res.Bytes == want, "moved %d bytes, requested %d", res.Bytes, want)
	}
}

var directions = []core.Direction{core.DRAMToPIM, core.PIMToDRAM}

// newTransfer: every design point moving transferBytes in each
// direction on an idle host (Fig. 15a's largest quick size).
func newTransfer(b *bench, sz sizes) workload {
	return &simWorkload{
		b: b,
		build: func(w *simWorkload) error {
			for _, dir := range directions {
				for _, d := range system.Designs() {
					s, cks, err := w.machine(d)
					if err != nil {
						return err
					}
					n := s.Cfg.PIM.NumCores()
					sp := b.spans.begin("system.TransferOp", b.spans.parent)
					op := s.TransferOp(dir, n, perCore(sz.transferBytes, n))
					b.spans.end(sp)
					transferPoint(w.add(fmt.Sprintf("%v %v", d, dir), s, cks), op, nil)
				}
			}
			return nil
		},
		done: func() { roundTrips(b) },
	}
}

// perCore splits a total transfer size across n cores, in whole lines.
func perCore(total uint64, n int) uint64 {
	per := total / uint64(n) &^ (mem.LineBytes - 1)
	return max(per, mem.LineBytes)
}

// roundTrips checks through the public API that a ToPIM then FromPIM
// round trip returns the input bytes, on every design point.
func roundTrips(b *bench) {
	const per = 1 << 10
	rng := rand.New(rand.NewPCG(b.seed, 0x70696d))
	for _, d := range system.Designs() {
		var v verdict
		cfg := pimmmu.Default(d)
		cfg.Seed = b.seed
		sys, err := pimmmu.New(cfg)
		if err != nil {
			v.expect(false, "%v", err)
			b.settle(fmt.Sprintf("round trip %v", d), v)
			continue
		}
		cores := sys.AllCores()
		in := sys.Malloc(len(cores) * per)
		for i := range in.Data {
			in.Data[i] = byte(rng.Uint32())
		}
		out := sys.Malloc(len(cores) * per)
		r1, err1 := sys.ToPIM(in, cores, per, 0)
		r2, err2 := sys.FromPIM(out, cores, per, 0)
		want := uint64(len(cores) * per)
		v.expect(err1 == nil && err2 == nil, "transfer errors %v, %v", err1, err2)
		v.expect(r1.Bytes == want && r2.Bytes == want, "moved %d and %d bytes, requested %d", r1.Bytes, r2.Bytes, want)
		v.expect(bytes.Equal(in.Data, out.Data), "FromPIM returned different bytes than ToPIM sent")
		b.settle(fmt.Sprintf("round trip %v", d), v)
	}
}

// newContended: a DRAM->PIM transfer of contendBytes for Base and
// PIM-MMU, each with four memory-hog threads at every intensity
// (Fig. 13b).
func newContended(b *bench, sz sizes) workload {
	const hogs, footprint = 4, 64 << 20
	return &simWorkload{
		b: b,
		build: func(w *simWorkload) error {
			for _, lvl := range contend.Levels() {
				for _, d := range []system.Design{system.Base, system.PIMMMU} {
					s, cks, err := w.machine(d)
					if err != nil {
						return err
					}
					base := s.Alloc(hogs * footprint)
					sp := b.spans.begin("system.Contenders", b.spans.parent)
					st := s.Contenders(hogs, func(i int, st *contend.Stopper) cpu.Program {
						return contend.MemoryHog(st, base+uint64(i)*footprint, footprint, lvl)
					})
					b.spans.end(sp)
					n := s.Cfg.PIM.NumCores()
					op := s.TransferOp(core.DRAMToPIM, n, perCore(sz.contendBytes, n))
					// The hogs stop once the transfer is done.
					transferPoint(w.add(fmt.Sprintf("%v hogs=%d %v", d, hogs, lvl), s, cks), op, st.Stop)
				}
			}
			return nil
		},
	}
}

// loadGaps are the open-loop mean inter-arrival gaps: one 64 B line
// per gap, from well below the knee (2 GB/s) to past it (64 GB/s).
var loadGaps = []clock.Picos{
	32 * clock.Nanosecond, 16 * clock.Nanosecond, 8 * clock.Nanosecond, 6 * clock.Nanosecond,
	4 * clock.Nanosecond, 3 * clock.Nanosecond, 2 * clock.Nanosecond, 1 * clock.Nanosecond,
}

// newOpenLoop: a mixed trace (30% writes over 16 MiB, past the LLC),
// round-tripped through the binary trace codec, driven by the Poisson
// open-loop driver at every load for Base and PIM-MMU.
func newOpenLoop(b *bench, sz sizes) workload {
	return &simWorkload{
		b: b,
		build: func(w *simWorkload) error {
			gcfg := trace.DefaultGenConfig()
			gcfg.Records = sz.traceRecords
			gcfg.FootprintLines = 1 << 18
			gcfg.WritePercent = 30
			gcfg.Seed = b.seed
			recs, err := codecRoundTrip(b, gcfg)
			if err != nil {
				return err
			}
			for _, d := range []system.Design{system.Base, system.PIMMMU} {
				for i, gap := range loadGaps {
					s, cks, err := w.machine(d)
					if err != nil {
						return err
					}
					// The trace addresses the machine's first allocation.
					base := s.Alloc(gcfg.FootprintBytes(trace.PatternMixed))
					dcfg := trace.DefaultDriverConfig()
					dcfg.MeanGap = gap
					dcfg.Duration = gap * clock.Picos(sz.loadArrivals)
					// Each load point draws its own arrival stream.
					dcfg.Seed = b.seed<<8 | uint64(i)
					loadPoint(b, w.add(fmt.Sprintf("%v gap=%v", d, gap), s, cks), recs, dcfg, base == gcfg.Base)
				}
			}
			return nil
		},
	}
}

// codecRoundTrip generates the trace, encodes it with the binary codec
// and decodes it again, settling one operation on the decoded records
// matching the generated ones.
func codecRoundTrip(b *bench, gcfg trace.GenConfig) ([]trace.Record, error) {
	sp := b.spans.begin("trace.Generate", b.spans.parent)
	recs, err := trace.Generate(trace.PatternMixed, gcfg)
	b.spans.end(sp)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	sp = b.spans.begin("trace.Encode", b.spans.parent)
	err = trace.Encode(&buf, recs)
	b.spans.end(sp)
	if err != nil {
		return nil, err
	}
	sp = b.spans.begin("trace.Decode", b.spans.parent)
	dec, err := trace.Decode(&buf)
	b.spans.end(sp)
	var v verdict
	v.expect(err == nil, "decode: %v", err)
	v.expect(slices.Equal(dec, recs), "decoded trace differs from the encoded one")
	b.settle("trace codec round trip", v)
	return dec, nil
}

// loadPoint drives recs at dcfg's load and checks every arrival
// completed exactly once with its bytes.
func loadPoint(b *bench, p *simPoint, recs []trace.Record, dcfg trace.DriverConfig, baseOK bool) {
	var lr trace.LoadResult
	var err error
	p.run = func() output {
		lr, err = p.sys.RunLoad(recs, dcfg)
		return output{
			DurationPs: int64(lr.Duration()), Bytes: lr.Bytes(),
			P50Ps: int64(lr.Total.P50()), P99Ps: int64(lr.Total.P99()),
		}
	}
	p.after = func(v *verdict) {
		v.expect(baseOK, "the trace footprint is not the machine's first allocation")
		v.expect(err == nil, "RunLoad: %v", err)
		v.expect(lr.Arrivals > 0 && lr.Issued == lr.Arrivals && lr.Completed == lr.Arrivals,
			"arrivals %d, issued %d, completed %d", lr.Arrivals, lr.Issued, lr.Completed)
		v.expect(lr.Bytes() == lr.Arrivals*mem.LineBytes, "moved %d bytes for %d line arrivals", lr.Bytes(), lr.Arrivals)
		b.count("trace.driver_retries", float64(lr.Retries))
	}
}
