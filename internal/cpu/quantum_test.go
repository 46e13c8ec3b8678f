package cpu

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/sim"
)

// chainProgram alternates chains of compute spans with loads.
func chainProgram(chains, spans int, cycles int64) Program {
	c, sp := 0, 0
	return ProgramFunc(func() (Op, bool) {
		if c >= chains {
			return Op{}, false
		}
		if sp < spans {
			sp++
			return Op{Kind: OpCompute, Cycles: cycles}, true
		}
		sp = 0
		c++
		return Op{Kind: OpLoad, Addr: uint64(c) * 64}, true
	})
}

// TestQuantumBoundarySpanEndReclassified pins the kick/rotate collision:
// a compute span whose end lands exactly on a quantum boundary, while the
// rotation at that boundary hands the core to a ready thread whose first
// operation is a load. The workload engineers the collision at every
// boundary: spans sized to end on quantum boundaries, more threads than
// cores, and fresh threads that lead with loads. Every thread must run to
// completion with all of its loads issued, the cores must be busy for
// exactly the runners' compute, and a rerun must agree on the final clock, the issue
// count and every core's busy time.
func TestQuantumBoundarySpanEndReclassified(t *testing.T) {
	run := func() string {
		eng := sim.New()
		cfg := testCfg()
		cfg.Cores = 2
		// Quantum = exactly 10000 core cycles, so a 10000-cycle span that
		// starts at a boundary ends precisely on the next one.
		cfg.Quantum = 10000 * 312 // 312 ps/cycle at 3.2 GHz
		fm := &fakeMem{eng: eng, latency: 12500, accepts: -1}
		c := New(eng, cfg, fm)
		exited := 0
		// Two runners whose span ends hit every boundary.
		for i := 0; i < 2; i++ {
			c.Spawn(fmt.Sprintf("runner%d", i), chainProgram(6, 3, 10000), func() { exited++ })
		}
		// Two ready threads that lead with loads: at the first boundary
		// the rotation hands them the cores while the runners' span ends
		// stand at that exact timestamp.
		for i := 0; i < 2; i++ {
			c.Spawn(fmt.Sprintf("loader%d", i), chainProgram(6, 0, 1), func() { exited++ })
		}
		eng.Run()
		if exited != 4 {
			t.Errorf("%d of 4 threads exited", exited)
		}
		if fm.count != 4*6 {
			t.Errorf("issued %d loads, want %d", fm.count, 4*6)
		}
		out := fmt.Sprintf("end=%v issued=%d", eng.Now(), fm.count)
		var busy clock.Picos
		for _, core := range c.Cores() {
			busy += core.BusyTime()
			out += fmt.Sprintf(" busy=%v", core.BusyTime())
		}
		// Only the runners compute: 2 threads x 6 chains x 3 spans.
		if want := 2 * 6 * 3 * c.Domain().Duration(10000); busy != want {
			t.Errorf("cores busy %v in total, want the runners' compute %v", busy, want)
		}
		return out
	}
	if want, got := run(), run(); got != want {
		t.Errorf("rerun diverged:\nwant %s\ngot  %s", want, got)
	}
}
