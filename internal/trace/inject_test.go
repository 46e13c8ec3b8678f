package trace

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// pipePort is a mem.Port that allocates nothing after construction: a
// fixed-latency FIFO of bounded depth whose completions are driven by
// one preallocated event, with a single WaitSpace registration.
type pipePort struct {
	eng    *sim.Engine
	lat    clock.Picos
	ev     sim.Event
	reqs   []*mem.Req // ring of in-service requests
	due    []clock.Picos
	head   int
	n      int
	waiter func()

	completed, rejected uint64
}

func newPipePort(eng *sim.Engine, lat clock.Picos, capacity int) *pipePort {
	p := &pipePort{eng: eng, lat: lat, reqs: make([]*mem.Req, capacity), due: make([]clock.Picos, capacity)}
	p.ev.Init(sim.HandlerFunc(p.fire))
	return p
}

func (p *pipePort) TryEnqueue(r *mem.Req) bool {
	if p.n == len(p.reqs) {
		p.rejected++
		return false
	}
	i := (p.head + p.n) % len(p.reqs)
	p.reqs[i], p.due[i] = r, p.eng.Now()+p.lat
	p.n++
	if !p.ev.Scheduled() {
		p.eng.Schedule(&p.ev, p.due[i])
	}
	return true
}

func (p *pipePort) WaitSpace(fn func()) { p.waiter = fn }

func (p *pipePort) fire(now clock.Picos) {
	r := p.reqs[p.head]
	p.reqs[p.head] = nil
	p.head = (p.head + 1) % len(p.reqs)
	if p.n--; p.n > 0 {
		p.eng.Schedule(&p.ev, p.due[p.head])
	}
	p.completed++
	r.OnDone(now)
	if w := p.waiter; w != nil {
		p.waiter = nil
		w()
	}
}

// TestInjectionAllocatesNothing pins the slot pool's promise for both
// constructors: after warm-up, issuing and completing lines through a
// port that allocates nothing allocates nothing, including lines that
// are rejected and retried after a WaitSpace wake.
func TestInjectionAllocatesNothing(t *testing.T) {
	const (
		warm  = 256 // completions before measuring
		chunk = 16  // completions per measured run
		runs  = 100
	)
	replayRecs := make([]Record, 2048)
	for i := range replayRecs {
		replayRecs[i] = Record{
			TSC:   clock.Picos(i) * 2 * clock.Nanosecond,
			Kind:  Kind(i % 2),
			Addr:  uint64(i) * 4 * mem.LineBytes,
			Bytes: uint32(1+i%3) * mem.LineBytes,
		}
	}
	dcfg := DefaultDriverConfig()
	dcfg.MeanGap = 2 * clock.Nanosecond
	dcfg.Duration = 8 * clock.Microsecond
	dcfg.MaxInFlight = 8

	for _, tc := range []struct {
		name  string
		start func(eng *sim.Engine, port mem.Port) error
	}{
		{"replay", func(eng *sim.Engine, port mem.Port) error {
			cfg := DefaultReplayConfig()
			cfg.MaxInFlight = 8
			rp, err := NewReplayer(eng, port, replayRecs, cfg)
			if err == nil {
				rp.Start(nil)
			}
			return err
		}},
		{"load", func(eng *sim.Engine, port mem.Port) error {
			d, err := NewDriver(eng, port, streamRecs(64), dcfg)
			if err == nil {
				d.Start(nil)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			// Two queue entries behind eight slots at 9 ns service: the
			// port pushes back on most lines.
			port := newPipePort(eng, 9*clock.Nanosecond, 2)
			if err := tc.start(eng, port); err != nil {
				t.Fatal(err)
			}
			step := func(target uint64) {
				for port.completed < target && eng.Step() {
				}
				if port.completed < target {
					t.Fatalf("run ended after %d completions, before %d", port.completed, target)
				}
			}
			step(warm)
			rejected := port.rejected
			allocs := testing.AllocsPerRun(runs, func() { step(port.completed + chunk) })
			if allocs != 0 {
				t.Errorf("%v allocs per %d issued and completed lines, want 0", allocs, chunk)
			}
			if port.rejected == rejected {
				t.Error("no line was rejected while measuring; the retry path went untested")
			}
			eng.Run()
		})
	}
}
