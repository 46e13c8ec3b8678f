package trace

import (
	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// slot is one in-flight line request. Slots are preallocated and
// recycled, and each binds its completion closure once, so steady-state
// injection performs no per-request allocation.
type slot struct {
	req    mem.Req
	due    clock.Picos
	issued clock.Picos
}

// injector is the one issue loop behind Replayer and Driver. It walks a
// due-time schedule of line requests and hands each line to a mem.Port
// once the line is due, a slot is free and the port accepts it. A line
// held back by the in-flight cap or a full queue keeps its due time: the
// wait is counted as queueing delay and never shifts the lines after it.
//
// The schedule has one of two sources. With arrivals nil, each record's
// lines are due at its TSC, at Addr + i*mem.LineBytes (the Replayer).
// Otherwise line i is due at arrivals[i] and takes the address and kind
// of record i mod len(recs) (the Driver).
type injector struct {
	eng       *sim.Engine
	port      mem.Port
	recs      []Record
	arrivals  []clock.Picos
	n         int // schedule length: records, or arrivals
	cacheable bool

	issueEv sim.Event
	spaceFn func()

	next     int    // next record or arrival to issue
	line     uint32 // next line within recs[next] (record source)
	seen     int    // arrivals observed due, for MaxQueued (monotone)
	inFlight int
	waiting  bool // a WaitSpace callback is registered
	started  bool
	finished bool

	free []*slot

	// res holds every counter both results are built from (a replay's
	// Result reads a subset); slip is the largest issue-minus-due lag of
	// any line.
	res    LoadResult
	slip   clock.Picos
	onDone func()
}

// init binds the injector to the engine and port and preallocates its
// MaxInFlight slots. The record and arrival slices are not copied.
func (in *injector) init(eng *sim.Engine, port mem.Port, recs []Record, arrivals []clock.Picos,
	maxInFlight int, cacheable bool, srcID int) {
	*in = injector{eng: eng, port: port, recs: recs, arrivals: arrivals, n: len(recs), cacheable: cacheable}
	if arrivals != nil {
		in.n = len(arrivals)
	}
	in.issueEv.Init(sim.HandlerFunc(in.issue))
	in.spaceFn = in.onSpace
	slots := make([]slot, maxInFlight)
	in.free = make([]*slot, maxInFlight)
	for i := range slots {
		s := &slots[i]
		s.req.SrcID = srcID
		s.req.OnDone = func(now clock.Picos) { in.complete(s, now) }
		in.free[i] = s
	}
}

// start begins the run at the engine's current time; onDone runs (inside
// the engine) once every line has issued and completed. An injector runs
// exactly once: a second start would silently resume from stale cursors
// with accumulated counters, so it panics instead.
func (in *injector) start(onDone func()) {
	if in.started {
		panic("trace: Start called twice; a Replayer or Driver runs once — build a fresh one per run")
	}
	in.started = true
	in.onDone = onDone
	in.res.Start = in.eng.Now()
	in.eng.Schedule(&in.issueEv, in.res.Start)
}

// noteQueued samples the arrival backlog: arrivals due at now that have
// not yet issued. The seen cursor is monotone, so the scan is O(arrivals)
// over the whole run.
func (in *injector) noteQueued(now clock.Picos) {
	for in.seen < len(in.arrivals) && in.res.Start+in.arrivals[in.seen] <= now {
		in.seen++
	}
	if q := uint64(in.seen - in.next); q > in.res.MaxQueued {
		in.res.MaxQueued = q
	}
}

// issue fires due lines until it runs ahead of the schedule (reschedule),
// out of slots (a completion re-kicks), or into a full controller queue
// (WaitSpace re-kicks).
func (in *injector) issue(now clock.Picos) {
	if in.arrivals != nil {
		in.noteQueued(now)
	}
	for in.next < in.n {
		var due clock.Picos
		var rec *Record
		if in.arrivals == nil {
			rec = &in.recs[in.next]
			due = in.res.Start + rec.TSC
		} else {
			rec = &in.recs[in.next%len(in.recs)]
			due = in.res.Start + in.arrivals[in.next]
		}
		if now < due {
			in.eng.Schedule(&in.issueEv, due)
			return
		}
		if len(in.free) == 0 {
			return
		}
		s := in.free[len(in.free)-1]
		addr := rec.Addr + uint64(in.line)*mem.LineBytes
		s.req.Addr = addr
		if rec.Kind == KindWrite {
			s.req.Kind = mem.Write
		} else {
			s.req.Kind = mem.Read
		}
		s.req.Cacheable = in.cacheable && mem.SpaceOf(addr) == mem.SpaceDRAM
		s.due = due
		s.issued = now
		if !in.port.TryEnqueue(&s.req) {
			in.res.Retries++
			if !in.waiting {
				in.waiting = true
				in.port.WaitSpace(in.spaceFn)
			}
			return
		}
		in.free = in.free[:len(in.free)-1]
		in.inFlight++
		in.res.Issued++
		if s.req.Kind == mem.Write {
			in.res.BytesWritten += mem.LineBytes
		} else {
			in.res.BytesRead += mem.LineBytes
		}
		qd := now - due
		in.res.QueueSum += qd
		in.res.Queue.Observe(qd)
		in.slip = max(in.slip, qd)
		if in.line++; in.arrivals != nil || in.line >= rec.Lines() {
			in.line = 0
			in.next++
		}
	}
	in.maybeFinish(now)
}

// onSpace is the WaitSpace callback: queue space freed, resume issue.
func (in *injector) onSpace() {
	in.waiting = false
	in.issue(in.eng.Now())
}

// complete retires one request and resumes issue if it was blocked on
// the in-flight cap.
func (in *injector) complete(s *slot, now clock.Picos) {
	in.inFlight--
	sv, tt := now-s.issued, now-s.due
	in.res.Completed++
	in.res.ServiceSum += sv
	in.res.TotalSum += tt
	in.res.Service.Observe(sv)
	in.res.Total.Observe(tt)
	in.free = append(in.free, s)
	if in.next < in.n {
		if !in.issueEv.Scheduled() && !in.waiting {
			in.issue(now)
		}
		return
	}
	in.maybeFinish(now)
}

// maybeFinish reports the result once every line issued and completed.
func (in *injector) maybeFinish(now clock.Picos) {
	if in.finished || in.next < in.n || in.inFlight > 0 {
		return
	}
	in.finished = true
	in.res.End = now
	in.onDone()
}
