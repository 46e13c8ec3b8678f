package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// injectOracleTable holds one SHA-256 per run of the injection matrix
// below: every field of the run's result plus the port's accepted
// request stream. It was captured once from the reference Replayer and
// Driver and pins their exact issue order, timing and accounting. Do not
// regenerate it to make a change pass.
const injectOracleTable = "testdata/inject_oracle.sha256"

var updateInjectOracle = flag.Bool("update-inject-oracle", false,
	"rewrite "+injectOracleTable+" from the current Replayer and Driver")

// injectCase names one run of the injection oracle matrix. An empty
// process is a Replayer run; a named one is a Driver run.
type injectCase struct {
	pattern  Pattern
	seed     uint64
	inFlight int
	capacity int
	lat      clock.Picos
	process  Process
}

func (c injectCase) String() string {
	ctor := "replay"
	if c.process != "" {
		ctor = "load/" + string(c.process)
	}
	return fmt.Sprintf("%s pattern=%s seed=%d inflight=%d cap=%d lat=%v",
		ctor, c.pattern, c.seed, c.inFlight, c.capacity, c.lat)
}

func injectCases() []injectCase {
	var cs []injectCase
	for _, proc := range append([]Process{""}, Processes()...) {
		for _, p := range []Pattern{PatternStream, PatternMixed, PatternChase} {
			for _, seed := range []uint64{1, 2} {
				for _, inFlight := range []int{1, 4, 64} {
					for _, capacity := range []int{1, 8, 64} {
						for _, lat := range []clock.Picos{clock.Nanosecond, 9 * clock.Nanosecond} {
							cs = append(cs, injectCase{p, seed, inFlight, capacity, lat, proc})
						}
					}
				}
			}
		}
	}
	return cs
}

// oracleRecords generates the case's trace and varies it so both
// line-expansion and routing paths run: records span one to three
// lines, every fifth lands in the PIM region (never cacheable), and
// records come in same-timestamp pairs.
func oracleRecords(c injectCase) []Record {
	gc := DefaultGenConfig()
	gc.Records = 192
	gc.FootprintLines = 512
	gc.Gap = 2 * clock.Nanosecond
	gc.Seed = c.seed
	recs := MustGenerate(c.pattern, gc)
	for i := range recs {
		recs[i].TSC = clock.Picos(i/2) * 2 * gc.Gap
		recs[i].Bytes = uint32(1+i%3) * mem.LineBytes
		if i%5 == 0 {
			recs[i].Addr += mem.PIMBase
		}
	}
	return recs
}

// hashPort wraps fakePort and folds every accepted request into a
// running digest: acceptance time, address, kind, routing and source.
type hashPort struct {
	*fakePort
	h hash.Hash
}

func (p *hashPort) TryEnqueue(r *mem.Req) bool {
	if !p.fakePort.TryEnqueue(r) {
		return false
	}
	fmt.Fprintf(p.h, "a %d %#x %d %t %d\n", p.eng.Now(), r.Addr, r.Kind, r.Cacheable, r.SrcID)
	return true
}

// runInjectOracle runs one case to completion and returns its digest.
func runInjectOracle(t *testing.T, c injectCase) string {
	t.Helper()
	eng := sim.New()
	port := &hashPort{fakePort: newFakePort(eng, c.lat, c.capacity), h: sha256.New()}
	recs := oracleRecords(c)
	done := false
	if c.process == "" {
		cfg := DefaultReplayConfig()
		cfg.MaxInFlight = c.inFlight
		rp, err := NewReplayer(eng, port, recs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rp.Start(func(r Result) {
			done = true
			fmt.Fprintf(port.h, "r %+v\n", r)
		})
	} else {
		cfg := DefaultDriverConfig()
		cfg.Process = c.process
		cfg.MeanGap = 3 * clock.Nanosecond
		cfg.Duration = 1500 * clock.Nanosecond
		cfg.OnTime = 100 * clock.Nanosecond
		cfg.OffTime = 150 * clock.Nanosecond
		cfg.Seed = c.seed
		cfg.MaxInFlight = c.inFlight
		d, err := NewDriver(eng, port, recs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.Start(func(r LoadResult) {
			done = true
			fmt.Fprintf(port.h, "l %+v\n", r)
		})
	}
	eng.Run()
	if !done {
		t.Fatalf("%v: run never completed", c)
	}
	return hex.EncodeToString(port.h.Sum(nil))
}

func readInjectOracleTable(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(injectOracleTable)
	if err != nil {
		t.Fatalf("reading digest table: %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed digest line %q", line)
		}
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestInjectOracle pins the Replayer's and the Driver's exact accepted
// request streams and results across in-flight caps, port capacities,
// service latencies, trace patterns and arrival processes.
func TestInjectOracle(t *testing.T) {
	cases := injectCases()
	got := make([]string, len(cases))
	for i, c := range cases {
		got[i] = runInjectOracle(t, c)
	}
	if *updateInjectOracle {
		var b strings.Builder
		b.WriteString("# SHA-256 of the result and accepted request stream per run\n")
		b.WriteString("# of TestInjectOracle. Captured once; never regenerate.\n")
		for i, c := range cases {
			fmt.Fprintf(&b, "%v %s\n", c, got[i])
		}
		if err := os.MkdirAll(filepath.Dir(injectOracleTable), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(injectOracleTable, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readInjectOracleTable(t)
	if len(want) != len(cases) {
		t.Errorf("digest table has %d entries, want %d", len(want), len(cases))
	}
	for i, c := range cases {
		if w, ok := want[c.String()]; !ok {
			t.Errorf("%v: no digest in table", c)
		} else if got[i] != w {
			t.Errorf("%v: digest %s, want %s", c, got[i], w)
		}
	}
}
