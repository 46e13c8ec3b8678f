package cpu

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// holdPort rejects its first rejects TryEnqueues and holds every
// WaitSpace registration until the test fires it by hand. It records
// each request offered, accepted or not.
type holdPort struct {
	eng     *sim.Engine
	rejects int
	offered []*mem.Req
	waiters []func()
}

func (p *holdPort) TryEnqueue(r *mem.Req) bool {
	p.offered = append(p.offered, r)
	if p.rejects > 0 {
		p.rejects--
		return false
	}
	done := r.OnDone
	p.eng.After(10*clock.Nanosecond, func() { done(p.eng.Now()) })
	return true
}

func (p *holdPort) WaitSpace(fn func()) { p.waiters = append(p.waiters, fn) }

// freeWaits counts the CPU's recycled WaitSpace registrations.
func freeWaits(c *CPU) int {
	n := 0
	for w := c.freeWait; w != nil; w = w.next {
		n++
	}
	return n
}

// computeProgram is n compute spans of the given length.
func computeProgram(n int, cycles int64) Program {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpCompute, Cycles: cycles}
	}
	return seqProgram(ops)
}

// TestWaitSpaceRegistrationFollowsMigration pins the pooled WaitSpace
// registration: a thread rejected on core A, moved to core B by the
// quantum rotation and rejected there again holds two registrations. A's
// fires into a core that no longer runs the thread and kicks nothing;
// B's kicks B. Fired records recycle, the next rejection reuses one, and
// every attempt offers the same request object.
func TestWaitSpaceRegistrationFollowsMigration(t *testing.T) {
	eng := sim.New()
	cfg := testCfg() // two cores
	cfg.Quantum = 10 * clock.Microsecond
	p := &holdPort{eng: eng, rejects: 2}
	c := New(eng, cfg, p)
	a, b := c.Cores()[0], c.Cores()[1]

	exited := 0
	onExit := func() { exited++ }
	mover := c.Spawn("mover", seqProgram([]Op{{Kind: OpLoad, Addr: 0x1000}}), onExit)
	c.Spawn("spin1", computeProgram(40, 10000), onExit) // core B
	c.Spawn("spin2", computeProgram(40, 10000), onExit) // ready

	// The mover is rejected on A at time 0. At the first quantum the
	// rotation gives A to spin2 and B to the mover, which is rejected
	// again.
	eng.RunUntil(cfg.Quantum)
	if a.Thread() == mover || b.Thread() != mover {
		t.Fatalf("after the rotation: core A runs %v, core B runs %v; want the mover on B", a.Thread(), b.Thread())
	}
	if len(p.waiters) != 2 || len(p.offered) != 2 {
		t.Fatalf("%d registrations, %d offers; want 2 and 2", len(p.waiters), len(p.offered))
	}
	if p.offered[0] != p.offered[1] {
		t.Error("the retry on B offered a new request; want the rejected one reused")
	}
	if b.kickEv.Scheduled() {
		t.Fatal("core B already has a step scheduled before any wake")
	}
	aWhen, aSched := a.kickEv.When(), a.kickEv.Scheduled()

	// A's record: the mover left A, so nothing may be kicked.
	p.waiters[0]()
	if b.kickEv.Scheduled() {
		t.Error("firing A's stale registration kicked core B")
	}
	if a.kickEv.Scheduled() != aSched || a.kickEv.When() != aWhen {
		t.Error("firing A's stale registration moved core A's step")
	}
	if n := freeWaits(c); n != 1 {
		t.Errorf("%d free records after the first fire, want 1", n)
	}

	// B's record kicks B at once.
	p.waiters[1]()
	if !b.kickEv.Scheduled() || b.kickEv.When() != eng.Now() {
		t.Error("firing B's registration did not kick core B now")
	}
	if n := freeWaits(c); n != 2 {
		t.Errorf("%d free records after both fired, want 2", n)
	}

	// One more rejection takes a recycled record rather than a new one.
	p.rejects = 1
	eng.Step() // B's kick: the mover retries and is rejected
	if len(p.waiters) != 3 {
		t.Fatalf("%d registrations, want 3", len(p.waiters))
	}
	if n := freeWaits(c); n != 1 {
		t.Errorf("%d free records after a third rejection, want 1 (one reused)", n)
	}
	p.waiters[2]()
	eng.Run()
	if exited != 3 {
		t.Errorf("%d of 3 threads exited", exited)
	}
	if len(p.offered) != 4 {
		t.Fatalf("%d offers, want 4 (three rejected, one accepted)", len(p.offered))
	}
	for i, r := range p.offered {
		if r != p.offered[0] {
			t.Errorf("offer %d is a new request; want the rejected one reused", i)
		}
	}
	if mover.MemOps != 1 || mover.Outstanding() != 0 {
		t.Errorf("mover issued %d ops with %d outstanding, want 1 and 0", mover.MemOps, mover.Outstanding())
	}
	if n := freeWaits(c); n != 2 {
		t.Errorf("%d free records at the end, want 2", n)
	}
}
