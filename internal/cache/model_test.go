package cache

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// refLRU is an independent reference model of the cache: a map from line
// number to its last-use time and dirty bit, plus each set's resident
// lines. A miss in a full set evicts the resident line used longest ago.
type refLRU struct {
	sets, ways uint64
	clock      uint64
	lines      map[uint64]*refLine
	members    map[uint64][]uint64 // set -> resident line numbers
	stats      Stats
}

type refLine struct {
	used  uint64
	dirty bool
}

func newRefLRU(cfg Config) *refLRU {
	lines := uint64(cfg.SizeBytes / mem.LineBytes)
	return &refLRU{
		sets:    lines / uint64(cfg.Ways),
		ways:    uint64(cfg.Ways),
		lines:   map[uint64]*refLine{},
		members: map[uint64][]uint64{},
	}
}

func (m *refLRU) contains(addr uint64) bool {
	_, ok := m.lines[addr/mem.LineBytes]
	return ok
}

func (m *refLRU) access(addr uint64, write bool) Result {
	line := addr / mem.LineBytes
	m.clock++
	if l, ok := m.lines[line]; ok {
		l.used = m.clock
		l.dirty = l.dirty || write
		m.stats.Hits++
		return Result{Hit: true}
	}
	m.stats.Misses++
	set := line % m.sets
	res := Result{}
	if ms := m.members[set]; uint64(len(ms)) == m.ways {
		oldest := 0
		for i, v := range ms {
			if m.lines[v].used < m.lines[ms[oldest]].used {
				oldest = i
			}
		}
		victim := ms[oldest]
		m.stats.Evictions++
		if m.lines[victim].dirty {
			m.stats.Writebacks++
			res.HasWriteback = true
			res.Writeback = victim * mem.LineBytes
		}
		delete(m.lines, victim)
		ms[oldest] = ms[len(ms)-1]
		m.members[set] = ms[:len(ms)-1]
	}
	m.lines[line] = &refLine{used: m.clock, dirty: write}
	m.members[set] = append(m.members[set], line)
	return res
}

// modelStream yields a mixed address stream: a resident hot set that fits
// in half the cache, a sequential stream that sweeps well past its
// capacity, and a few conflict-heavy sets with twice as many tags as
// ways; 30% of accesses write.
type modelStream struct {
	rng        *rand.Rand
	hot        []uint64
	next       uint64 // streaming cursor (line number)
	sets, ways uint64
}

func newModelStream(cfg Config, seed int64) *modelStream {
	s := &modelStream{rng: rand.New(rand.NewSource(seed))}
	lines := uint64(cfg.SizeBytes / mem.LineBytes)
	s.ways = uint64(cfg.Ways)
	s.sets = lines / s.ways
	s.hot = make([]uint64, lines/2)
	for i := range s.hot {
		s.hot[i] = uint64(s.rng.Int63n(1<<22)) * mem.LineBytes
	}
	s.next = 1 << 24
	return s
}

func (s *modelStream) addr() uint64 {
	switch n := s.rng.Intn(10); {
	case n < 5:
		return s.hot[s.rng.Intn(len(s.hot))] + uint64(s.rng.Intn(mem.LineBytes))
	case n < 8:
		s.next++
		return s.next * mem.LineBytes
	default:
		set := uint64(s.rng.Intn(4))
		tag := uint64(s.rng.Intn(int(2 * s.ways)))
		return (tag*s.sets + set) * mem.LineBytes
	}
}

// TestCacheMatchesReferenceLRU replays random streams through the cache
// and the reference model side by side. Every access must agree on hit,
// writeback and writeback address, Contains must agree with the model
// without disturbing LRU order, and the final counters must match.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		accesses int
	}{
		{"small", small(), 200_000},
		{"default", DefaultConfig(), 600_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, m := New(tc.cfg), newRefLRU(tc.cfg)
			st := newModelStream(tc.cfg, 7)
			for i := 0; i < tc.accesses; i++ {
				a := st.addr()
				if i%3 == 0 {
					// Probe an address that may or may not be resident.
					probe := st.addr()
					before := c.Stats()
					if got, want := c.Contains(probe), m.contains(probe); got != want {
						t.Fatalf("access %d: Contains(%#x) = %v, model %v", i, probe, got, want)
					}
					if c.Stats() != before {
						t.Fatalf("access %d: Contains changed the counters", i)
					}
				}
				write := st.rng.Intn(10) < 3
				got, want := c.Access(a, write), m.access(a, write)
				if got != want {
					t.Fatalf("access %d (%#x, write=%v): cache %+v, model %+v", i, a, write, got, want)
				}
			}
			if got, want := c.Stats(), m.stats; got != want {
				t.Fatalf("stats: cache %+v, model %+v", got, want)
			}
			if m.stats.Writebacks == 0 || m.stats.Hits == 0 {
				t.Fatalf("stream too tame: %+v", m.stats)
			}
		})
	}
}

// BenchmarkEngineLLC times the LLC's per-request work as the memory
// system does it, a Contains probe then an Access (one write in four),
// on the Table I geometry. "streaming" walks fresh lines, so every op
// misses and evicts; "resident" draws from a working set of half the
// cache, so every op hits.
func BenchmarkEngineLLC(b *testing.B) {
	cfg := DefaultConfig()
	lines := cfg.SizeBytes / mem.LineBytes
	resident := 0
	op := func(c *Cache, a uint64, i int) {
		if c.Contains(a) {
			resident++
		}
		c.Access(a, i&3 == 0)
	}
	b.Run("streaming", func(b *testing.B) {
		resident = 0
		c := New(cfg)
		for i := 0; i < lines; i++ {
			c.Access(uint64(i)*mem.LineBytes, true)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op(c, uint64(lines+i)*mem.LineBytes, i)
		}
		if resident != 0 {
			b.Fatalf("%d streaming probes found their line resident", resident)
		}
	})
	b.Run("resident", func(b *testing.B) {
		resident = 0
		rng := rand.New(rand.NewSource(1))
		addrs := make([]uint64, 1<<16)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(lines/2)) * mem.LineBytes
		}
		c := New(cfg)
		for i := 0; i < lines/2; i++ {
			c.Access(uint64(i)*mem.LineBytes, false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op(c, addrs[i&(len(addrs)-1)], i)
		}
		if resident != b.N {
			b.Fatalf("%d of %d resident probes hit", resident, b.N)
		}
	})
}
