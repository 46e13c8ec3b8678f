package memsys

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// traffic is the byte count each device set has moved so far.
type traffic struct{ dramRead, dramWrite, pimRead, pimWrite uint64 }

func trafficOf(s *System) traffic {
	ds, ps := s.DRAM.Stats(), s.PIM.Stats()
	return traffic{ds.BytesRead(), ds.BytesWritten(), ps.BytesRead(), ps.BytesWritten()}
}

// TestCrossingClassification is the table test of the request paths
// through the memory system. A request whose completion crosses back to
// the requester (it carries OnDone) must fire that callback once, after
// the device has served it; a posted request stays local to its channel:
// the channel serves it and no completion is delivered. Every case must
// land on exactly the device set its address decodes to, and the machine
// must drain to idle with no event left behind.
func TestCrossingClassification(t *testing.T) {
	line := uint64(mem.LineBytes)
	cases := []struct {
		name      string
		req       *mem.Req
		wantsDone bool
		want      traffic
	}{
		{
			// A cacheable read miss fills from DRAM and delivers its
			// completion back to the requester.
			name:      "read miss with callback crosses",
			req:       &mem.Req{Addr: 0, Kind: mem.Read, Cacheable: true},
			wantsDone: true,
			want:      traffic{dramRead: line},
		},
		{
			// A posted non-cacheable DRAM write bypasses the LLC and has
			// no callback and no waiter.
			name: "posted NC write stays local",
			req:  &mem.Req{Addr: 0, Kind: mem.Write, Cacheable: false},
			want: traffic{dramWrite: line},
		},
		{
			// A PIM-region request bypasses the LLC; its completion still
			// returns to the requester.
			name:      "pim write with callback crosses",
			req:       &mem.Req{Addr: mem.PIMBase, Kind: mem.Write},
			wantsDone: true,
			want:      traffic{pimWrite: line},
		},
		{
			// A posted PIM write is served by its channel end to end.
			name: "posted pim write stays local",
			req:  &mem.Req{Addr: mem.PIMBase, Kind: mem.Write},
			want: traffic{pimWrite: line},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			s := MustNew(eng, smallConfig(MapLocalityBoth))
			r := *tc.req
			fired := 0
			var doneAt clock.Picos
			if tc.wantsDone {
				r.OnDone = func(now clock.Picos) { fired++; doneAt = now }
			}
			if !s.TryEnqueue(&r) {
				t.Fatal("request rejected by empty system")
			}
			eng.Run()
			if got := trafficOf(s); got != tc.want {
				t.Errorf("device traffic %+v, want %+v", got, tc.want)
			}
			if tc.wantsDone && (fired != 1 || doneAt == 0) {
				t.Errorf("completion fired %d times at %v, want once after service", fired, doneAt)
			}
			if !s.Idle() || eng.Pending() != 0 {
				t.Errorf("machine not drained: idle=%v pending=%d", s.Idle(), eng.Pending())
			}
		})
	}
}

// TestLLCHitDeliversFromHostLane pins the LLC-hit path: a hit never
// touches a channel — no queue entry, no device traffic — and its
// completion is one deferred memory-system event, delivered exactly the
// LLC hit latency after acceptance.
func TestLLCHitDeliversFromHostLane(t *testing.T) {
	eng := sim.New()
	s := MustNew(eng, smallConfig(MapLocalityBoth))
	// Prime the line (miss, fills from DRAM).
	s.TryEnqueue(&mem.Req{Addr: 0x2000, Kind: mem.Read, Cacheable: true})
	eng.Run()
	before, start := trafficOf(s), eng.Now()
	var doneAt clock.Picos
	s.TryEnqueue(&mem.Req{Addr: 0x2000, Kind: mem.Read, Cacheable: true,
		OnDone: func(now clock.Picos) { doneAt = now }})
	if !s.Idle() {
		t.Error("LLC hit queued work on a channel; hits must not touch channels")
	}
	if got := eng.Pending(); got != 1 {
		t.Errorf("LLC hit scheduled %d events, want 1 (the deferred hit delivery)", got)
	}
	eng.Run()
	if want := start + s.Config().LLCHitLatency; doneAt != want {
		t.Fatalf("LLC hit completed at %v, want %v", doneAt, want)
	}
	if got := trafficOf(s); got != before {
		t.Errorf("LLC hit moved device traffic: %+v -> %+v", before, got)
	}
	if st := s.LLC.Stats(); st.Hits != 1 {
		t.Errorf("LLC hits = %d, want 1", st.Hits)
	}
}

// TestLLCHitSerialEnginesUseHostQueue pins the batched hit queue: hits
// from several requesters share one standing engine event rather than
// one event each, and their completions fire in acceptance order, each
// at its own acceptance time plus the hit latency.
func TestLLCHitSerialEnginesUseHostQueue(t *testing.T) {
	eng := sim.New()
	s := MustNew(eng, smallConfig(MapLocalityBoth))
	s.TryEnqueue(&mem.Req{Addr: 0x2000, Kind: mem.Read, Cacheable: true})
	eng.Run()
	lat := s.Config().LLCHitLatency
	var order []string
	hit := func(src int) {
		s.TryEnqueue(&mem.Req{Addr: 0x2000, Kind: mem.Read, Cacheable: true, SrcID: src,
			OnDone: func(now clock.Picos) { order = append(order, fmt.Sprintf("src%d@%d", src, now)) }})
	}
	start := eng.Now()
	for src := 0; src < 3; src++ {
		hit(src)
	}
	if got := eng.Pending(); got != 1 {
		t.Errorf("3 same-instant hits scheduled %d events, want 1 standing queue event", got)
	}
	// A later hit joins the same queue behind the first three.
	eng.At(start+lat/2, func() { hit(3) })
	eng.Run()
	want := []string{
		fmt.Sprintf("src0@%d", start+lat),
		fmt.Sprintf("src1@%d", start+lat),
		fmt.Sprintf("src2@%d", start+lat),
		fmt.Sprintf("src3@%d", start+lat/2+lat),
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("hit completions %v, want %v", order, want)
	}
}

// TestWritebackStaysPostedAndLocal forces a dirty eviction and checks the
// writeback path: the evicted line is written back exactly once as a
// posted request (nothing waits on it), while every set-filling read
// still completes to its requester.
func TestWritebackStaysPostedAndLocal(t *testing.T) {
	eng := sim.New()
	s := MustNew(eng, smallConfig(MapLocalityBoth))
	ways := s.Config().LLC.Ways
	setStride := uint64(s.Config().LLC.SizeBytes / ways) // same-set stride
	// Dirty one line, then evict it by filling the set with reads.
	s.TryEnqueue(&mem.Req{Addr: 0, Kind: mem.Write, Cacheable: true})
	eng.Run()
	done := 0
	for i := 1; i <= ways; i++ {
		s.TryEnqueue(&mem.Req{Addr: uint64(i) * setStride, Kind: mem.Read, Cacheable: true,
			OnDone: func(clock.Picos) { done++ }})
		eng.Run()
	}
	if done != ways {
		t.Fatalf("completed %d of %d set-filling reads", done, ways)
	}
	if wrote := s.DRAM.Stats().BytesWritten(); wrote != mem.LineBytes {
		t.Fatalf("writeback traffic = %d bytes, want exactly one line", wrote)
	}
	if !s.Idle() || eng.Pending() != 0 {
		t.Errorf("writeback left work behind: idle=%v pending=%d", s.Idle(), eng.Pending())
	}
}

// TestTapObservesEveryLaneSerially pins the trace-tap contract across
// both device sets: the tap sees every accepted request exactly once, at
// its acceptance time, in acceptance order, and two runs of the same
// request mix observe identical sequences.
func TestTapObservesEveryLaneSerially(t *testing.T) {
	run := func() []string {
		eng := sim.New()
		s := MustNew(eng, smallConfig(MapLocalityBoth))
		var seen []string
		s.SetTap(func(now clock.Picos, r *mem.Req) {
			seen = append(seen, fmt.Sprintf("%d:%x:%v", now, r.Addr, r.Kind))
		})
		for i := 0; i < 64; i++ {
			addr := uint64(i) * 64
			if i%2 == 1 {
				addr = mem.PIMBase + addr
			}
			req := &mem.Req{Addr: addr, Kind: mem.Read, Cacheable: addr < mem.PIMBase}
			if i%4 == 3 {
				req.Kind = mem.Write
			}
			// Stagger acceptance so the tap's timestamps are checked too.
			eng.At(clock.Picos(i)*clock.Nanosecond, func() {
				if !s.TryEnqueue(req) {
					t.Errorf("request %d rejected", i)
				}
			})
		}
		eng.Run()
		return seen
	}
	first := run()
	if len(first) != 64 {
		t.Fatalf("tap saw %d requests, want 64", len(first))
	}
	for i, got := range first {
		addr := uint64(i) * 64
		if i%2 == 1 {
			addr = mem.PIMBase + addr
		}
		kind := mem.Read
		if i%4 == 3 {
			kind = mem.Write
		}
		if want := fmt.Sprintf("%d:%x:%v", clock.Picos(i)*clock.Nanosecond, addr, kind); got != want {
			t.Fatalf("tap entry %d = %s, want %s", i, got, want)
		}
	}
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("tap diverged between runs at %d: %s vs %s", i, first[i], second[i])
		}
	}
}
