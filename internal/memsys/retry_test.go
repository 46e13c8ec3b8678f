package memsys

import (
	"testing"

	"repro/internal/addrmap"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
)

// fullQueue is one controller whose read queue the test keeps full by
// enqueueing at the channel directly, from a preallocated request pool.
type fullQueue struct {
	eng  *sim.Engine
	ch   *dram.Channel
	loc  addrmap.Loc
	pool []mem.Req
}

// newFullQueue fills the read queue of the channel serving addr.
func newFullQueue(t *testing.T, eng *sim.Engine, s *System, addr uint64, runs int) *fullQueue {
	t.Helper()
	space, loc := s.Decode(addr)
	depth := s.Config().DRAM.QueueDepth
	f := &fullQueue{eng: eng, ch: s.channelFor(space, loc), loc: loc,
		pool: make([]mem.Req, depth+runs+8)}
	for i := 0; i < depth; i++ {
		f.topUp(t)
	}
	if r, _ := f.ch.QueueLen(); r != depth {
		t.Fatalf("read queue holds %d, want %d", r, depth)
	}
	return f
}

// topUp enqueues one pooled read at the controller.
func (f *fullQueue) topUp(t *testing.T) {
	r := &f.pool[0]
	f.pool = f.pool[1:]
	if !f.ch.TryEnqueue(r, f.loc) {
		t.Fatal("top-up rejected")
	}
}

// stepUntil fires events until cond holds.
func (f *fullQueue) stepUntil(t *testing.T, cond func() bool) {
	for !cond() {
		if !f.eng.Step() {
			t.Fatal("engine drained before the wake")
		}
	}
}

// TestRejectedEnqueueAllocatesNothing pins the allocation-free retry
// path: with the target read queue full, a rejected TryEnqueue plus its
// WaitSpace registration, the wake that fires it and refilling the slot
// allocate nothing, for a cacheable DRAM miss (which builds a line fill)
// and for a non-cacheable PIM request alike.
func TestRejectedEnqueueAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name      string
		addr      uint64
		cacheable bool
	}{
		{"cacheable-miss", 0x40000, true},
		{"non-cacheable", mem.PIMBase + 0x40000, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const runs = 200
			eng := sim.New()
			s := MustNew(eng, smallConfig(MapLocalityBoth))
			f := newFullQueue(t, eng, s, tc.addr, runs)
			req := &mem.Req{Addr: tc.addr, Kind: mem.Read, Cacheable: tc.cacheable}
			woken := 0
			wake := func() { woken++ }
			before := f.ch.Stats().QueueFull
			allocs := testing.AllocsPerRun(runs, func() {
				if s.TryEnqueue(req) {
					t.Fatal("TryEnqueue accepted into a full queue")
				}
				s.WaitSpace(wake)
				w := woken
				f.stepUntil(t, func() bool { return woken > w })
				f.topUp(t)
			})
			if allocs != 0 {
				t.Errorf("rejected TryEnqueue + WaitSpace + wake: %v allocs/op, want 0", allocs)
			}
			if got := f.ch.Stats().QueueFull - before; got != runs+1 {
				t.Errorf("QueueFull rose by %d, want one per rejection (%d)", got, runs+1)
			}
			if woken != runs+1 {
				t.Errorf("%d wakes, want %d", woken, runs+1)
			}
		})
	}
}

// TestWakeOfReregisteringWaitersAllocatesNothing pins notifySpace's
// double buffer: eight waiters that each register again when woken fire
// once per wake, in registration order, and after warm-up a wake
// allocates nothing.
func TestWakeOfReregisteringWaitersAllocatesNothing(t *testing.T) {
	const n, runs = 8, 100
	eng := sim.New()
	s := MustNew(eng, smallConfig(MapLocalityBoth))
	f := newFullQueue(t, eng, s, 0x40000, runs)
	woken := 0
	outOfOrder := false
	fns := make([]func(), n)
	for i := range fns {
		fns[i] = func() {
			if woken%n != i {
				outOfOrder = true
			}
			woken++
			f.ch.WaitSpace(fns[i])
		}
		f.ch.WaitSpace(fns[i])
	}
	allocs := testing.AllocsPerRun(runs, func() {
		w := woken
		f.stepUntil(t, func() bool { return woken > w })
		if woken != w+n {
			t.Fatalf("one wake fired %d waiters, want %d", woken-w, n)
		}
		f.topUp(t)
	})
	if allocs != 0 {
		t.Errorf("wake of %d re-registering waiters: %v allocs/op, want 0", n, allocs)
	}
	if outOfOrder {
		t.Error("waiters fired out of registration order")
	}
}
