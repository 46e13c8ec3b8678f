// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator's public packages for a fixed time,
// checks every output it produces, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics) as one JSON object on the
// last line of standard output.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload transfer --seed 1 --seconds 20 --trace 0
//
// Workloads: transfer, contended, openloop, serve (see README.md for
// why each exists and which layers it loads).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose simulated outputs are pinned in
// reference.json.
const defaultSeed = 1

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses the command line, measures the workload and prints the
// result. Errors are problems with the invocation or the environment;
// a failed check is reported in the result, not as an error.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed: page placement, trace and arrival streams, request order")
	seconds := fs.Float64("seconds", 20, "measurement time; passes repeat until it is used up")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for spans, CPU profiles and scratch stores")
	pin := fs.String("pin", "", "write one pass's simulated outputs of every simulation workload to this file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pin != "" {
		return pinReference(*pin, *seed, *outDir)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace %d (want 0 or 1)", *traceFlag)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds %g (want > 0)", *seconds)
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(*outDir, 0o777); err != nil {
		return err
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	b := newBench(*name, *seed, *outDir, ref)
	res, err := b.measure(mk, defaultSizes(), time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if err != nil {
		return err
	}
	b.printReport(stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(b *bench, sz sizes) workload{
	"transfer":  newTransfer,
	"contended": newContended,
	"openloop":  newOpenLoop,
	"serve":     newServe,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sizes is the amount of work in one pass of each workload. The test
// shrinks it; the benchmark always runs defaultSizes.
type sizes struct {
	transferBytes uint64 // total bytes of each transfer design point
	contendBytes  uint64 // total bytes of each contended transfer
	loadArrivals  int    // arrivals per open-loop load point
	traceRecords  int    // records in the open-loop trace
	warmTrips     int    // warm serve round trips per pass
}

func defaultSizes() sizes {
	return sizes{
		transferBytes: 16 << 20,
		contendBytes:  4 << 20,
		loadArrivals:  1 << 16,
		traceRecords:  1 << 16,
		warmTrips:     3000,
	}
}

// pinReference writes the default-size outputs of every simulation
// workload at seed, in the reference.json format.
func pinReference(path string, seed uint64, outDir string) error {
	ref := reference{}
	for _, name := range []string{"transfer", "contended", "openloop"} {
		b := newBench(name, seed, outDir, nil)
		w := workloads[name](b, defaultSizes())
		if err := w.setup(); err != nil {
			return err
		}
		w.run()
		w.check()
		if b.failed > 0 {
			return errors.New(strings.Join(b.failures, "; "))
		}
		ref[name] = b.outputs
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}
