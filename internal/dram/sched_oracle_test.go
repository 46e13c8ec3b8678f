package dram

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/addrmap"
	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// oracleTable holds one SHA-256 per (seed, queue depth, scan window) of
// the scheduler's observable stream. It was captured once from the
// reference scheduler and pins its exact choices: a scheduler change
// that reorders any command or completion under any of these settings
// changes a digest. Do not regenerate it to make a change pass.
const oracleTable = "testdata/sched_oracle.sha256"

var updateOracle = flag.Bool("update-oracle", false,
	"rewrite "+oracleTable+" from the current scheduler")

// oracleRequests is long enough that every run crosses at least two
// refresh intervals with traffic queued (checked per run below).
const oracleRequests = 6000

// oracleCase names one run of the oracle matrix.
type oracleCase struct {
	seed          int64
	depth, window int
}

func (oc oracleCase) String() string {
	return fmt.Sprintf("seed=%d depth=%d window=%d", oc.seed, oc.depth, oc.window)
}

func oracleCases() []oracleCase {
	var cs []oracleCase
	for _, seed := range []int64{1, 2, 3, 4} {
		for _, depth := range []int{8, 64} {
			for _, window := range []int{1, 4, 24, 64} {
				cs = append(cs, oracleCase{seed, depth, window})
			}
		}
	}
	return cs
}

// streamHasher is an Observer that folds every command, and (through the
// requests' callbacks) every completion, into one running digest.
type streamHasher struct {
	h    hash.Hash
	chk  *Checker
	cmds map[Cmd]uint64
}

func (s *streamHasher) Command(ch int, e CmdEvent) {
	s.chk.Command(ch, e)
	s.cmds[e.Cmd]++
	fmt.Fprintf(s.h, "c %v\n", e)
}

// runOracle drives randomized mixed traffic through one checked channel
// and returns the stream digest. It fails the test on any protocol
// violation, lost or duplicated completion, or residual queue entry.
func runOracle(t *testing.T, oc oracleCase) string {
	t.Helper()
	cfg := smallConfig()
	cfg.QueueDepth = oc.depth
	cfg.WriteDrainHi = oc.depth / 2
	cfg.WriteDrainLo = oc.depth / 8
	cfg.ScanWindow = oc.window
	eng := sim.New()
	ds := MustNew(eng, cfg, "oracle")
	ch := ds.Channel(0)
	obs := &streamHasher{h: sha256.New(), chk: NewChecker(cfg), cmds: map[Cmd]uint64{}}
	ch.Observe(obs)

	rng := rand.New(rand.NewSource(oc.seed))
	period := cfg.Timing.Domain().Period()
	done := make([]int, oracleRequests)
	var prev addrmap.Loc
	var issue func(i int)
	issue = func(i int) {
		for ; i < oracleRequests; i++ {
			kind := mem.Read
			if rng.Intn(10) < 4 {
				kind = mem.Write
			}
			// Half the requests reuse the previous bank and row (row
			// hits); the rest land anywhere among a few rows per bank
			// (misses and conflicts).
			loc := prev
			loc.Col = rng.Intn(cfg.Geometry.Cols)
			if rng.Intn(2) == 0 {
				loc = addrmap.Loc{
					Rank:      rng.Intn(cfg.Geometry.Ranks),
					BankGroup: rng.Intn(cfg.Geometry.BankGroups),
					Bank:      rng.Intn(cfg.Geometry.Banks),
					Row:       rng.Intn(8),
					Col:       loc.Col,
				}
			}
			idx := i
			r := &mem.Req{Kind: kind, OnDone: func(now clock.Picos) {
				done[idx]++
				fmt.Fprintf(obs.h, "d %d %d\n", idx, now)
			}}
			if !ch.TryEnqueue(r, loc) {
				ch.WaitSpace(func() { issue(idx) })
				return
			}
			prev = loc
			// Occasional arrival gaps let the queues run dry, and rare
			// long ones leave the channel idle across refresh deadlines.
			switch n := rng.Intn(400); {
			case n == 0:
				eng.After(clock.Picos(3*cfg.Timing.REFI)*period, func() { issue(idx + 1) })
				return
			case n < 24:
				eng.After(clock.Picos(rng.Intn(300))*period, func() { issue(idx + 1) })
				return
			}
		}
	}
	issue(0)
	eng.Run()

	if v := obs.chk.Violations(); len(v) != 0 {
		t.Fatalf("%v: %d protocol violations; first: %s", oc, len(v), v[0])
	}
	for i, n := range done {
		if n != 1 {
			t.Fatalf("%v: request %d completed %d times", oc, i, n)
		}
	}
	if r, w := ch.QueueLen(); r != 0 || w != 0 {
		t.Fatalf("%v: queues not empty at drain: %d reads, %d writes", oc, r, w)
	}
	// Refreshes issued while traffic is queued are what drive the
	// scheduler's refreshing-rank skip; require at least two per rank.
	if refs, want := obs.cmds[CmdREF], uint64(2*cfg.Geometry.Ranks); refs < want {
		t.Fatalf("%v: %d refreshes issued, want at least %d", oc, refs, want)
	}
	if obs.cmds[CmdRD]+obs.cmds[CmdWR] != oracleRequests {
		t.Fatalf("%v: %d column commands for %d requests", oc,
			obs.cmds[CmdRD]+obs.cmds[CmdWR], oracleRequests)
	}
	return hex.EncodeToString(obs.h.Sum(nil))
}

func readOracleTable(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(oracleTable)
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

// TestSchedulerOracle pins the FR-FCFS scheduler's exact command and
// completion streams across queue depths and scan windows under random
// mixed traffic, with the JEDEC checker attached to every run.
func TestSchedulerOracle(t *testing.T) {
	cases := oracleCases()
	got := make([]string, len(cases))
	for i, oc := range cases {
		got[i] = runOracle(t, oc)
	}
	if *updateOracle {
		var b strings.Builder
		b.WriteString("# SHA-256 of the scheduler's command and completion stream per run\n")
		b.WriteString("# of TestSchedulerOracle. Captured once; never regenerate.\n")
		for i, oc := range cases {
			fmt.Fprintf(&b, "%v %s\n", oc, got[i])
		}
		if err := os.MkdirAll(filepath.Dir(oracleTable), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(oracleTable, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readOracleTable(t)
	if len(want) != len(cases) {
		t.Errorf("digest table has %d entries, want %d", len(want), len(cases))
	}
	for i, oc := range cases {
		if w, ok := want[oc.String()]; !ok {
			t.Errorf("%v: no digest in table", oc)
		} else if got[i] != w {
			t.Errorf("%v: stream digest %s, want %s", oc, got[i], w)
		}
	}
}
