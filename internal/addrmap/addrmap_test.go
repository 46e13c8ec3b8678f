package addrmap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// testGeom is a small geometry so exhaustive checks stay fast.
var testGeom = Geometry{
	Channels: 4, Ranks: 2, BankGroups: 4, Banks: 4, Rows: 64, Cols: 32,
}

// paperGeom matches Table I (DDR4-2400, 4 channels, 2 ranks/channel).
var paperGeom = Geometry{
	Channels: 4, Ranks: 2, BankGroups: 4, Banks: 4, Rows: 32768, Cols: 128,
}

func mappers(g Geometry) []Mapper {
	return []Mapper{NewLocality(g), NewMLP(g), NewMLP(g, WithoutXORHash())}
}

func TestGeometryValidate(t *testing.T) {
	if err := testGeom.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := testGeom
	bad.Channels = 3
	if err := bad.Validate(); err == nil {
		t.Error("Channels=3 accepted; want power-of-two error")
	}
	bad = testGeom
	bad.Rows = 0
	if err := bad.Validate(); err == nil {
		t.Error("Rows=0 accepted; want error")
	}
}

func TestGeometryCapacity(t *testing.T) {
	g := paperGeom
	if got := g.RowBytes(); got != 8192 {
		t.Errorf("RowBytes = %d, want 8192", got)
	}
	if got := g.BankBytes(); got != 256<<20 {
		t.Errorf("BankBytes = %d, want 256 MiB", got)
	}
	if got := g.TotalBytes(); got != 32<<30 {
		t.Errorf("TotalBytes = %d, want 32 GiB", got)
	}
	if got := g.TotalBanks(); got != 128 {
		t.Errorf("TotalBanks = %d, want 128", got)
	}
	if got := g.BanksPerChannel(); got != 32 {
		t.Errorf("BanksPerChannel = %d, want 32", got)
	}
}

// Every mapper must be a bijection: Unmap(Map(a)) == a for all line-aligned
// addresses, checked exhaustively on the small geometry.
func TestMapUnmapRoundTripExhaustive(t *testing.T) {
	for _, m := range mappers(testGeom) {
		total := testGeom.TotalBytes()
		for a := uint64(0); a < total; a += mem.LineBytes {
			if got := m.Unmap(m.Map(a)); got != a {
				t.Fatalf("%s: Unmap(Map(0x%x)) = 0x%x", m.Name(), a, got)
			}
		}
	}
}

// Property-based round trip on the full paper geometry.
func TestMapUnmapRoundTripQuick(t *testing.T) {
	for _, m := range mappers(paperGeom) {
		m := m
		f := func(raw uint64) bool {
			a := mem.LineAlign(raw % paperGeom.TotalBytes())
			return m.Unmap(m.Map(a)) == a
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

// Every decoded field must be inside the geometry's bounds.
func TestMapFieldsInRange(t *testing.T) {
	for _, m := range mappers(paperGeom) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 5000; i++ {
			a := mem.LineAlign(rng.Uint64() % paperGeom.TotalBytes())
			l := m.Map(a)
			g := paperGeom
			if l.Channel < 0 || l.Channel >= g.Channels ||
				l.Rank < 0 || l.Rank >= g.Ranks ||
				l.BankGroup < 0 || l.BankGroup >= g.BankGroups ||
				l.Bank < 0 || l.Bank >= g.Banks ||
				l.Row < 0 || l.Row >= g.Rows ||
				l.Col < 0 || l.Col >= g.Cols {
				t.Fatalf("%s: Map(0x%x) = %v out of range", m.Name(), a, l)
			}
		}
	}
}

// The locality mapping must keep a whole bank's worth of consecutive
// addresses inside one bank — the property PIM address spaces rely on.
func TestLocalityKeepsBankContiguous(t *testing.T) {
	m := NewLocality(testGeom)
	bankBytes := testGeom.BankBytes()
	first := m.Map(0)
	for a := uint64(0); a < bankBytes; a += mem.LineBytes {
		l := m.Map(a)
		if l.Channel != first.Channel || l.Rank != first.Rank ||
			l.BankGroup != first.BankGroup || l.Bank != first.Bank {
			t.Fatalf("address 0x%x left bank: %v vs %v", a, l, first)
		}
	}
	// The very next line must move to a different bank.
	l := m.Map(bankBytes)
	if l.BankID(testGeom) == first.BankID(testGeom) && l.Channel == first.Channel {
		t.Error("address one past bank capacity stayed in the same bank")
	}
}

// The locality mapping's channel bits are at the MSB end: the lower
// 1/Channels of the space maps entirely to channel 0.
func TestLocalityChannelAtMSB(t *testing.T) {
	m := NewLocality(testGeom)
	perCh := testGeom.TotalBytes() / uint64(testGeom.Channels)
	for i := 0; i < 1000; i++ {
		a := mem.LineAlign(uint64(rand.Int63()) % perCh)
		if l := m.Map(a); l.Channel != 0 {
			t.Fatalf("low-space address 0x%x mapped to channel %d", a, l.Channel)
		}
	}
	if l := m.Map(perCh); l.Channel != 1 {
		t.Errorf("first address of second slice mapped to channel %d, want 1", l.Channel)
	}
}

// The MLP mapping must spread a short sequential stream across every
// channel: 256-byte granularity channel interleaving.
func TestMLPChannelInterleavingFine(t *testing.T) {
	m := NewMLP(testGeom)
	seen := map[int]bool{}
	// 4 KiB sequential stream must touch all 4 channels.
	for a := uint64(0); a < 4096; a += mem.LineBytes {
		seen[m.Map(a).Channel] = true
	}
	if len(seen) != testGeom.Channels {
		t.Errorf("4KiB stream touched %d channels, want %d", len(seen), testGeom.Channels)
	}
}

// A sequential stream under MLP mapping must also rotate bank groups at
// fine granularity (hiding tCCD_L).
func TestMLPBankGroupInterleaving(t *testing.T) {
	m := NewMLP(testGeom)
	seen := map[int]bool{}
	for a := uint64(0); a < 8192; a += mem.LineBytes {
		l := m.Map(a)
		seen[l.BankGroup&1] = true
	}
	if len(seen) != 2 {
		t.Error("8KiB stream never toggled the low bank-group bit")
	}
}

// XOR hashing must permute banks across rows: the same (bank,bg,ch) index
// bits map to different physical banks in different rows.
func TestXORHashPermutesAcrossRows(t *testing.T) {
	g := paperGeom
	m := NewMLP(g)
	nohash := NewMLP(g, WithoutXORHash())
	rowStride := uint64(g.Cols) * mem.LineBytes * uint64(g.Channels*g.Ranks*g.BankGroups*g.Banks)
	diff := 0
	for i := 0; i < 64; i++ {
		a := uint64(i) * rowStride
		if m.Map(a).Bank != nohash.Map(a).Bank ||
			m.Map(a).BankGroup != nohash.Map(a).BankGroup {
			diff++
		}
	}
	if diff == 0 {
		t.Error("XOR hashing never changed the bank/bank-group assignment across rows")
	}
}

// A power-of-two stride that camps on one bank without hashing must spread
// over multiple banks with hashing — the motivating property of
// permutation-based interleaving.
func TestXORHashSpreadsStridedPattern(t *testing.T) {
	g := paperGeom
	hashed := NewMLP(g)
	plain := NewMLP(g, WithoutXORHash())
	// Stride of one full row span: without hashing every access lands in
	// the same bank of the same channel.
	stride := uint64(g.Cols) * mem.LineBytes * uint64(g.Channels*g.Ranks*g.BankGroups*g.Banks)
	banksPlain := map[[4]int]bool{}
	banksHashed := map[[4]int]bool{}
	for i := 0; i < 256; i++ {
		a := uint64(i) * stride
		lp, lh := plain.Map(a), hashed.Map(a)
		banksPlain[[4]int{lp.Channel, lp.Rank, lp.BankGroup, lp.Bank}] = true
		banksHashed[[4]int{lh.Channel, lh.Rank, lh.BankGroup, lh.Bank}] = true
	}
	if len(banksPlain) != 1 {
		t.Fatalf("without hashing, row-stride pattern touched %d banks, want 1", len(banksPlain))
	}
	if len(banksHashed) < 16 {
		t.Errorf("with hashing, row-stride pattern touched only %d banks, want >= 16", len(banksHashed))
	}
}

// XOR hashing must never change the row or column (it permutes banks
// between rows, preserving row-buffer locality).
func TestXORHashPreservesRowAndColumn(t *testing.T) {
	hashed := NewMLP(paperGeom)
	plain := NewMLP(paperGeom, WithoutXORHash())
	f := func(raw uint64) bool {
		a := mem.LineAlign(raw % paperGeom.TotalBytes())
		lh, lp := hashed.Map(a), plain.Map(a)
		return lh.Row == lp.Row && lh.Col == lp.Col && lh.Rank == lp.Rank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBankID(t *testing.T) {
	g := testGeom
	want := 0
	for ra := 0; ra < g.Ranks; ra++ {
		for bg := 0; bg < g.BankGroups; bg++ {
			for bk := 0; bk < g.Banks; bk++ {
				l := Loc{Rank: ra, BankGroup: bg, Bank: bk}
				if got := l.BankID(g); got != want {
					t.Fatalf("BankID(ra=%d,bg=%d,bk=%d) = %d, want %d", ra, bg, bk, got, want)
				}
				want++
			}
		}
	}
}

func TestHetMapDispatch(t *testing.T) {
	dram := NewMLP(testGeom)
	pim := NewLocality(testGeom)
	h := NewHetMap(
		Region{Name: "dram", Base: 0, Mapper: dram, Space: mem.SpaceDRAM},
		Region{Name: "pim", Base: mem.PIMBase, Mapper: pim, Space: mem.SpacePIM},
	)
	r, _ := h.Decode(0x1000)
	if r.Name != "dram" || r.Space != mem.SpaceDRAM {
		t.Errorf("Decode(0x1000) region = %q/%v, want dram/DRAM", r.Name, r.Space)
	}
	r, _ = h.Decode(mem.PIMBase + 0x40)
	if r.Name != "pim" || r.Space != mem.SpacePIM {
		t.Errorf("Decode(PIM+0x40) region = %q/%v, want pim/PIM", r.Name, r.Space)
	}
}

func TestHetMapDecodeUsesRegionRelativeAddress(t *testing.T) {
	pim := NewLocality(testGeom)
	h := NewHetMap(
		Region{Name: "pim", Base: mem.PIMBase, Mapper: pim, Space: mem.SpacePIM},
	)
	_, l := h.Decode(mem.PIMBase)
	if l != (Loc{}) {
		t.Errorf("Decode(PIMBase) = %v, want zero location", l)
	}
}

func TestHetMapEncodeDecodeRoundTrip(t *testing.T) {
	h := NewHetMap(
		Region{Name: "dram", Base: 0, Mapper: NewMLP(testGeom), Space: mem.SpaceDRAM},
		Region{Name: "pim", Base: mem.PIMBase, Mapper: NewLocality(testGeom), Space: mem.SpacePIM},
	)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		region := "dram"
		base := uint64(0)
		if i%2 == 1 {
			region, base = "pim", mem.PIMBase
		}
		a := base + mem.LineAlign(rng.Uint64()%testGeom.TotalBytes())
		_, l := h.Decode(a)
		if got := h.Encode(region, l); got != a {
			t.Fatalf("Encode(%s, Decode(0x%x)) = 0x%x", region, a, got)
		}
	}
}

func TestHetMapLookupMiss(t *testing.T) {
	h := NewHetMap(
		Region{Name: "dram", Base: 0, Mapper: NewLocality(testGeom), Space: mem.SpaceDRAM},
	)
	if _, ok := h.Lookup(testGeom.TotalBytes()); ok {
		t.Error("Lookup just past region end reported a hit")
	}
	if _, ok := h.Lookup(1 << 60); ok {
		t.Error("Lookup far address reported a hit")
	}
}

func TestHetMapOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overlapping regions did not panic")
		}
	}()
	NewHetMap(
		Region{Name: "a", Base: 0, Mapper: NewLocality(testGeom)},
		Region{Name: "b", Base: 64, Mapper: NewLocality(testGeom)},
	)
}

func TestHetMapDecodeOutsidePanics(t *testing.T) {
	h := NewHetMap(Region{Name: "dram", Base: 0, Mapper: NewLocality(testGeom)})
	defer func() {
		if recover() == nil {
			t.Error("Decode outside every region did not panic")
		}
	}()
	h.Decode(1 << 50)
}

func TestSpaceOf(t *testing.T) {
	if mem.SpaceOf(0) != mem.SpaceDRAM {
		t.Error("SpaceOf(0) != DRAM")
	}
	if mem.SpaceOf(mem.PIMBase) != mem.SpacePIM {
		t.Error("SpaceOf(PIMBase) != PIM")
	}
	if mem.SpaceOf(mem.PIMBase-1) != mem.SpaceDRAM {
		t.Error("SpaceOf(PIMBase-1) != DRAM")
	}
}

// Distribution check: over a large random sample, the MLP mapping must
// spread lines near-uniformly across channels (within 5%).
func TestMLPChannelUniformity(t *testing.T) {
	m := NewMLP(paperGeom)
	counts := make([]int, paperGeom.Channels)
	rng := rand.New(rand.NewSource(3))
	const n = 40000
	for i := 0; i < n; i++ {
		a := mem.LineAlign(rng.Uint64() % paperGeom.TotalBytes())
		counts[m.Map(a).Channel]++
	}
	want := n / paperGeom.Channels
	for ch, c := range counts {
		if c < want*95/100 || c > want*105/100 {
			t.Errorf("channel %d got %d of %d lines; want ~%d", ch, c, n, want)
		}
	}
}

// searchLookup is the reference region lookup: a binary search of the
// sorted regions by end address.
func searchLookup(rs []Region, addr uint64) (Region, bool) {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].End() > addr })
	if i < len(rs) && addr >= rs[i].Base {
		return rs[i], true
	}
	return Region{}, false
}

// TestHetMapLookupMatchesSearch checks Lookup and Decode against the
// binary-search reference on the Base layout (locality-centric mapping
// on both regions) and the PIM-MMU layout (MLP-centric DRAM region):
// at base-1, base, end-1 and end of every region and on 10k random
// addresses, inside and outside the regions.
func TestHetMapLookupMatchesSearch(t *testing.T) {
	layouts := map[string]*HetMap{
		"base": NewHetMap(
			Region{Name: "dram", Base: 0, Mapper: NewLocality(paperGeom), Space: mem.SpaceDRAM},
			Region{Name: "pim", Base: mem.PIMBase, Mapper: NewLocality(paperGeom), Space: mem.SpacePIM},
		),
		"pim-mmu": NewHetMap(
			Region{Name: "pim", Base: mem.PIMBase, Mapper: NewLocality(paperGeom), Space: mem.SpacePIM},
			Region{Name: "dram", Base: 0, Mapper: NewMLP(paperGeom), Space: mem.SpaceDRAM},
		),
	}
	for name, h := range layouts {
		t.Run(name, func(t *testing.T) {
			rs := h.Regions()
			var addrs []uint64
			for _, r := range rs {
				addrs = append(addrs, r.Base-1, r.Base, r.End()-1, r.End())
			}
			rng := rand.New(rand.NewSource(11))
			top := rs[len(rs)-1].End() + rs[len(rs)-1].Size()
			for i := 0; i < 10000; i++ {
				addrs = append(addrs, rng.Uint64()%top)
			}
			inside := 0
			for _, a := range addrs {
				want, wantOK := searchLookup(rs, a)
				got, ok := h.Lookup(a)
				if ok != wantOK || got.Name != want.Name {
					t.Fatalf("Lookup(0x%x) = %q/%v, want %q/%v", a, got.Name, ok, want.Name, wantOK)
				}
				if !ok {
					continue
				}
				inside++
				r, l := h.Decode(a)
				if r.Name != want.Name || l != want.Mapper.Map(a-want.Base) {
					t.Fatalf("Decode(0x%x) = %q %v, want %q %v", a, r.Name, l, want.Name, want.Mapper.Map(a-want.Base))
				}
			}
			if inside == 0 || inside == len(addrs) {
				t.Errorf("%d of %d addresses inside a region; want both hits and misses", inside, len(addrs))
			}
		})
	}
}
