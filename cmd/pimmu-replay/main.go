// Command pimmu-replay records, generates, inspects and replays memory
// traces at the mem.Port boundary.
//
// Usage:
//
//	pimmu-replay record  [-design D] [-kb N] [-dir to|from] [-text] -o FILE
//	pimmu-replay gen     [-pattern P] [-n N] [-gap NS] [-seed S] [-text] -o FILE
//	pimmu-replay inspect [-n N] FILE
//	pimmu-replay replay  [-design D|all] [-format text|json] [-workers N] [-inflight N] [-noncacheable] [-cache-dir DIR] [-cache off|rw|ro] [-cpuprofile FILE] [-memprofile FILE] FILE
//	pimmu-replay load    [-process fixed|poisson|burst] [-pattern P] [-gaps NS,...] [-n N] [-slo-ns N] [-seed S] [... replay's format, worker, cache and profile flags]
//
// record captures every request a transfer presents to the memory port
// of the chosen design; gen synthesizes one of the built-in application
// patterns (stream, strided, chase, mixed, zipf); inspect prints a
// trace's summary and head/tail records; replay injects a trace into a
// fresh machine (or, with -design all, into every design point in
// parallel) at its recorded inter-arrival times and reports bandwidth
// and latency. Replays of the same trace are bit-identical across runs
// and across -workers counts.
//
// load sweeps an open-loop arrival process (fixed-rate, poisson, or
// bursty on/off) over an offered-load axis on Base and PIM-MMU. As in
// replay, due times never move under backpressure; here they come from
// the arrival process instead of a trace, so each point reports the
// end-to-end latency tail
// (p50/p99/p99.9, arrival to completion) and the p99 queueing delay at
// that offered load, plus the SLO knee — the maximum offered load whose
// p99 meets -slo-ns. The same determinism and caching contracts as
// replay apply.
//
// replay's and load's -cache-dir enables the content-addressed result cache: each
// (machine fingerprint, trace identity, replay config, code version)
// result is served from disk when already computed. The trace identity
// is a digest of the canonical binary encoding of the records, so the
// same workload hits whether it was stored as text or binary, and any
// record change forces a recompute. The key excludes -workers, which
// changes execution speed, never results. The report is byte-identical
// warm or cold; the hit/miss summary goes to stderr.
//
// replay and load also accept -cpuprofile and -memprofile, writing
// pprof profiles that cover the replayed simulations.
//
// replay's and load's -format json replaces the text report with one
// serve/api ExperimentResult NDJSON line: the structured results plus
// the text report in the Text field — the same wire shape pimmu-serve
// returns.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/resultcache"
	"repro/internal/serve/api"
	"repro/internal/system"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "load":
		err = cmdLoad(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "pimmu-replay: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimmu-replay: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  pimmu-replay record  [-design D] [-kb N] [-dir to|from] [-text] -o FILE
  pimmu-replay gen     [-pattern P] [-n N] [-gap NS] [-seed S] [-text] -o FILE
  pimmu-replay inspect [-n N] FILE
  pimmu-replay replay  [-design D|all] [-format text|json] [-workers N] [-inflight N] [-noncacheable] [-cache-dir DIR] [-cache off|rw|ro] [-cpuprofile FILE] [-memprofile FILE] FILE
  pimmu-replay load    [-process fixed|poisson|burst] [-pattern P] [-gaps NS,NS,...] [-n N] [-slo-ns N] [-seed S] [-format text|json] [-workers N] [-inflight N] [-noncacheable] [-cache-dir DIR] [-cache off|rw|ro] [-cpuprofile FILE] [-memprofile FILE]
`)
}

// replayFlags is the shared flag block of the replay and load
// subcommands: the Runner flags every CLI registers, plus the memory
// port knobs.
type replayFlags struct {
	inflight *int
	noncache *bool
	runner   *harness.RunnerFlags
}

// registerFlags registers the replay/load shared flags on fs; the
// Runner flags come from the harness helper so all three CLIs stay in
// sync.
func registerFlags(fs *flag.FlagSet) *replayFlags {
	return &replayFlags{
		inflight: fs.Int("inflight", 64, "max outstanding line requests"),
		noncache: fs.Bool("noncacheable", false, "bypass the LLC for DRAM-region requests"),
		runner:   harness.RegisterRunnerFlags(fs),
	}
}

// emit prints one computed result in the selected -format: text runs
// render straight to stdout; json wraps the structured results and the
// render of exactly those results in a serve/api ExperimentResult — the
// wire shape pimmu-serve returns — as one NDJSON line.
func emit(format, experiment, op string, results any, render func(io.Writer)) error {
	if format != "json" {
		render(os.Stdout)
		return nil
	}
	var text strings.Builder
	render(&text)
	res, err := api.NewResult(experiment, "", results, text.String())
	if err != nil {
		return err
	}
	res.Op = op
	return json.NewEncoder(os.Stdout).Encode(res)
}

// cmdRecord runs one transfer with a recorder tapped onto the memory
// port and writes the captured stream.
func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	designFlag := fs.String("design", "pim-mmu", "design point: base, base+d, base+d+h, pim-mmu")
	kb := fs.Uint64("kb", 256, "total transfer size in KiB")
	dirFlag := fs.String("dir", "to", "direction: to (DRAM->PIM) or from (PIM->DRAM)")
	out := fs.String("o", "", "output trace file (required)")
	text := fs.Bool("text", false, "write the human-readable text form")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("record: -o FILE is required")
	}
	design, err := system.ParseDesign(*designFlag)
	if err != nil {
		return err
	}
	dir := core.DRAMToPIM
	if *dirFlag == "from" {
		dir = core.PIMToDRAM
	} else if *dirFlag != "to" {
		return fmt.Errorf("record: unknown direction %q", *dirFlag)
	}

	s := system.MustNew(system.DefaultConfig(design))
	rec := s.RecordTrace()
	per := (*kb << 10) / uint64(s.Cfg.PIM.NumCores()) &^ 63
	if per < 64 {
		per = 64
	}
	res := s.RunTransfer(s.TransferOp(dir, s.Cfg.PIM.NumCores(), per))
	s.StopTrace()

	if err := trace.WriteFile(*out, rec.Records(), *text); err != nil {
		return err
	}
	fmt.Printf("recorded %d requests over %v (%v, %v, %.2f GB/s) -> %s\n",
		rec.Len(), trace.Duration(rec.Records()), design, dir, res.Throughput()/1e9, *out)
	return nil
}

// cmdGen synthesizes a built-in pattern and writes it.
func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	pattern := fs.String("pattern", "stream", "stream, strided, chase, mixed, or zipf")
	n := fs.Int("n", 1<<14, "records to generate")
	gapNS := fs.Int64("gap", 1, "inter-arrival gap in nanoseconds")
	seed := fs.Uint64("seed", 1, "PRNG seed for the randomized patterns")
	out := fs.String("o", "", "output trace file (required)")
	text := fs.Bool("text", false, "write the human-readable text form")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -o FILE is required")
	}
	cfg := trace.DefaultGenConfig()
	cfg.Records = *n
	cfg.Gap = clock.Picos(*gapNS) * clock.Nanosecond
	cfg.Seed = *seed
	recs, err := trace.Generate(trace.Pattern(*pattern), cfg)
	if err != nil {
		return err
	}
	if err := trace.WriteFile(*out, recs, *text); err != nil {
		return err
	}
	sum := trace.Summarize(recs)
	fmt.Printf("generated %s: %d records, %d reads / %d writes, %v span -> %s\n",
		*pattern, sum.Records, sum.Reads, sum.Writes, sum.Duration, *out)
	return nil
}

// cmdInspect prints a trace summary and its head/tail records.
func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	n := fs.Int("n", 8, "records to print from head and tail")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect: want exactly one trace file")
	}
	recs, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if *n < 0 {
		*n = 0
	}
	sum := trace.Summarize(recs)
	fmt.Printf("records   %d (%d reads, %d writes, %d PIM-region)\n",
		sum.Records, sum.Reads, sum.Writes, sum.PIMRecords)
	fmt.Printf("bytes     %d read, %d written\n", sum.BytesRead, sum.BytesWritten)
	fmt.Printf("span      %v issue window\n", sum.Duration)
	fmt.Printf("addresses 0x%x .. 0x%x\n", sum.MinAddr, sum.MaxAddr)
	head := *n
	if head > len(recs) {
		head = len(recs)
	}
	fmt.Println("-- head --")
	for _, r := range recs[:head] {
		fmt.Println(" ", r)
	}
	if len(recs) > 2**n {
		fmt.Println("  ...")
		fmt.Println("-- tail --")
		for _, r := range recs[len(recs)-*n:] {
			fmt.Println(" ", r)
		}
	}
	return nil
}

// cmdReplay injects a trace into one design point, or sweeps all four
// in parallel.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	designFlag := fs.String("design", "pim-mmu", "design point, or all")
	f := registerFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("replay: want exactly one trace file")
	}
	runner, store, err := f.runner.Runner()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	format, err := f.runner.Format()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	recs, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	cfg := trace.DefaultReplayConfig()
	cfg.MaxInFlight = *f.inflight
	cfg.Cacheable = !*f.noncache
	defer func() {
		if store != nil {
			fmt.Fprintf(os.Stderr, "pimmu-replay: cache: %v\n", store.Stats())
		}
	}()
	// The trace identity digests the records' canonical binary encoding,
	// so a key is independent of the on-disk trace form but tied to every
	// record.
	traceID, err := traceIdentity(recs)
	if err != nil {
		return err
	}
	stopProf, err := f.runner.StartProfiles()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	op := fmt.Sprintf("trace=%s rcfg=%s", traceID, resultcache.Canonical(cfg))
	plan := func(designs []system.Design) harness.Plan {
		jobs := make([]harness.Job, len(designs))
		for i, d := range designs {
			jobs[i] = runner.NewJob("pimmu-replay/v1", system.DefaultConfig(d), op)
		}
		return harness.Plan{Experiment: "pimmu-replay", Jobs: jobs}
	}
	run := func(i int, j harness.Job) trace.Result {
		return replayOn(j, recs, cfg)
	}

	if *designFlag == "all" {
		designs := system.Designs()
		results := harness.ComputePlan(runner, plan(designs), run)
		render := func(w io.Writer) {
			fmt.Fprintf(w, "%d records, max %d in flight\n\n", len(recs), cfg.MaxInFlight)
			fmt.Fprintf(w, "%-12s %12s %12s %18s %12s %12s\n",
				"design", "GB/s", "avg (ns)", "p50/p95/p99 (ns)", "retries", "slip")
			for i, d := range designs {
				r := results[i]
				fmt.Fprintf(w, "%-12v %12.2f %12.0f %18s %12d %12v\n",
					d, r.Throughput()/1e9, r.AvgLatency().Nanoseconds(),
					r.Latency.Tail(0.5, 0.95, 0.99),
					r.Retries, r.Slip)
			}
		}
		if err := emit(format, "pimmu-replay", "design=all "+op, results, render); err != nil {
			return err
		}
		return stopProf()
	}

	design, err := system.ParseDesign(*designFlag)
	if err != nil {
		return err
	}
	r := harness.ComputePlan(runner, plan([]system.Design{design}), run)[0]
	render := func(w io.Writer) {
		fmt.Fprintf(w, "design     %v\n", design)
		fmt.Fprintf(w, "records    %d (%d line requests)\n", len(recs), r.Issued)
		fmt.Fprintf(w, "bytes      %d read, %d written\n", r.BytesRead, r.BytesWritten)
		fmt.Fprintf(w, "duration   %v\n", r.Duration())
		fmt.Fprintf(w, "throughput %.2f GB/s\n", r.Throughput()/1e9)
		fmt.Fprintf(w, "latency    %v avg, p50 <= %v, p95 <= %v, p99 <= %v\n",
			r.AvgLatency(), r.Latency.P50(), r.Latency.P95(), r.Latency.P99())
		fmt.Fprintf(w, "pressure   %d retries, %v max slip behind the trace clock\n", r.Retries, r.Slip)
	}
	if err := emit(format, "pimmu-replay", fmt.Sprintf("design=%v %s", design, op), r, render); err != nil {
		return err
	}
	return stopProf()
}

// cmdLoad sweeps an open-loop arrival process over an offered-load axis
// on Base and PIM-MMU and renders the latency-vs-load curve with its
// SLO knee. Unlike replay, there is no trace file: the synthetic
// pattern supplies addresses, the arrival process supplies timing.
func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	process := fs.String("process", "poisson", "arrival process: fixed, poisson, or burst")
	pattern := fs.String("pattern", "mixed", "address pattern: stream, strided, chase, mixed, or zipf")
	gapsFlag := fs.String("gaps", "32,16,8,4,2,1", "offered-load axis as mean inter-arrival gaps in ns (one 64 B line per gap)")
	n := fs.Int("n", 1<<13, "arrivals per load point")
	sloNS := fs.Int64("slo-ns", 2000, "latency SLO on the p99 end-to-end latency, in ns")
	seed := fs.Uint64("seed", 1, "PRNG seed for the pattern and the poisson process")
	f := registerFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("load: unexpected arguments %v", fs.Args())
	}
	runner, store, err := f.runner.Runner()
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	format, err := f.runner.Format()
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	gaps, err := parseGaps(*gapsFlag)
	if err != nil {
		return err
	}
	if *n <= 0 {
		return fmt.Errorf("load: non-positive arrival count %d", *n)
	}
	slo := clock.Picos(*sloNS) * clock.Nanosecond

	gcfg := trace.DefaultGenConfig()
	gcfg.FootprintLines = 1 << 18 // 16 MiB: past the LLC, so DRAM decides
	gcfg.Seed = *seed
	dcfgAt := func(gap clock.Picos) trace.DriverConfig {
		dcfg := trace.DefaultDriverConfig()
		dcfg.Process = trace.Process(*process)
		dcfg.MeanGap = gap
		dcfg.Duration = gap * clock.Picos(*n)
		dcfg.Seed = *seed
		dcfg.MaxInFlight = *f.inflight
		dcfg.Cacheable = !*f.noncache
		return dcfg
	}
	if err := dcfgAt(gaps[0]).Validate(); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if store != nil {
		defer func() { fmt.Fprintf(os.Stderr, "pimmu-replay: cache: %v\n", store.Stats()) }()
	}

	designs := []system.Design{system.Base, system.PIMMMU}
	type gridPoint struct{ gi, di int }
	pts := make([]gridPoint, 0, len(gaps)*len(designs))
	for gi := range gaps {
		for di := range designs {
			pts = append(pts, gridPoint{gi, di})
		}
	}
	jobs := make([]harness.Job, len(pts))
	for i, p := range pts {
		jobs[i] = runner.NewJob("pimmu-load/v1", system.DefaultConfig(designs[p.di]),
			fmt.Sprintf("pattern=%s gen=%s dcfg=%s", *pattern,
				resultcache.Canonical(gcfg), resultcache.Canonical(dcfgAt(gaps[p.gi]))))
	}
	stopProf, err := f.runner.StartProfiles()
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	results := harness.ComputePlan(runner,
		harness.Plan{Experiment: "pimmu-load", Jobs: jobs},
		func(i int, j harness.Job) trace.LoadResult {
			return loadOn(j, trace.Pattern(*pattern), gcfg, dcfgAt(gaps[pts[i].gi]))
		})

	render := func(w io.Writer) {
		fmt.Fprintf(w, "%s arrivals, %s pattern, %d arrivals/point, max %d in flight\n\n",
			*process, *pattern, *n, *f.inflight)
		fmt.Fprintf(w, "%-16s %24s %24s %16s %16s\n", "offered (GB/s)",
			"Base p50/p99/p99.9 (ns)", "PIM-MMU p50/p99/p99.9 (ns)",
			"Base q99 (ns)", "PIM-MMU q99 (ns)")
		knee := make([]clock.Picos, len(designs))
		for gi, gap := range gaps {
			b := results[gi*len(designs)]
			m := results[gi*len(designs)+1]
			fmt.Fprintf(w, "%-16.2f %24s %24s %16.0f %16.0f\n",
				dcfgAt(gap).OfferedLoad()/1e9,
				b.Total.Tail(0.5, 0.99, 0.999), m.Total.Tail(0.5, 0.99, 0.999),
				b.Queue.P99().Nanoseconds(), m.Queue.P99().Nanoseconds())
			for di := range designs {
				r := results[gi*len(designs)+di]
				if r.Total.P99() <= slo && (knee[di] == 0 || gap < knee[di]) {
					knee[di] = gap
				}
			}
		}
		fmt.Fprintf(w, "\nmax load @ p99 <= %v: Base %s, PIM-MMU %s\n",
			slo, kneeGBs(knee[0]), kneeGBs(knee[1]))
	}
	op := fmt.Sprintf("process=%s pattern=%s n=%d slo-ns=%d gaps=%s seed=%d",
		*process, *pattern, *n, *sloNS, *gapsFlag, *seed)
	if err := emit(format, "pimmu-load", op, results, render); err != nil {
		return err
	}
	return stopProf()
}

// parseGaps parses the comma-separated -gaps axis (nanoseconds).
func parseGaps(s string) ([]clock.Picos, error) {
	var gaps []clock.Picos
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("load: bad gap %q in -gaps", f)
		}
		gaps = append(gaps, clock.Picos(v*float64(clock.Nanosecond)))
	}
	if len(gaps) == 0 {
		return nil, fmt.Errorf("load: empty -gaps axis")
	}
	return gaps, nil
}

// kneeGBs renders one design's SLO knee as its offered load, or "-"
// when no point on the axis met the objective.
func kneeGBs(gap clock.Picos) string {
	if gap == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f GB/s", float64(mem.LineBytes)/gap.Seconds()/1e9)
}

// loadOn runs one open-loop point on a fresh machine of the job's
// config: the pattern supplies addresses (its footprint allocated on the
// machine), the driver config supplies arrivals.
func loadOn(j harness.Job, p trace.Pattern, gcfg trace.GenConfig, dcfg trace.DriverConfig) trace.LoadResult {
	s := system.MustNew(j.Config)
	gcfg.Base = s.Alloc(gcfg.FootprintBytes(p))
	recs, err := trace.Generate(p, gcfg)
	if err != nil {
		panic(err)
	}
	r, err := s.RunLoad(recs, dcfg)
	if err != nil {
		panic(err)
	}
	return r
}

// traceIdentity digests the records' canonical binary encoding.
func traceIdentity(recs []trace.Record) (string, error) {
	h := sha256.New()
	if err := trace.Encode(h, recs); err != nil {
		return "", fmt.Errorf("replay: fingerprinting trace: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// replayOn replays recs on a fresh machine of the job's config.
func replayOn(j harness.Job, recs []trace.Record, cfg trace.ReplayConfig) trace.Result {
	s := system.MustNew(j.Config)
	r, err := s.RunReplay(recs, cfg)
	if err != nil {
		panic(err)
	}
	return r
}
