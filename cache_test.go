// Result-cache correctness tests: a cache-hit rerun of an experiment
// must be byte-identical to a cold run — across worker counts — and the
// cache must reject (and silently
// recompute past) corrupt, truncated and wrong-code-version entries.
// These are the properties that make caching sound on top of the
// determinism contract the rest of this suite pins.
package pimmmu_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
	"repro/internal/resultcache"
	"repro/internal/system"
)

// cachedExperiments are the tier-1 representatives: fig8 caches plain
// floats; replay caches a struct carrying a latency histogram, covering
// the structured-payload round trip. The slow tier's experiment-wide
// audits extend byte-identity to every experiment uncached.
var cachedExperiments = []string{"fig8", "replay"}

// renderWith renders one experiment through a fresh Runner with the
// given sweep worker count, fronted by store when non-nil.
func renderWith(t *testing.T, store *resultcache.Store, name string, workers int) []byte {
	t.Helper()
	e, ok := harness.ByName(name)
	if !ok {
		t.Fatalf("unknown experiment %q", name)
	}
	r := &harness.Runner{Workers: workers}
	if store != nil {
		r.Cache = store
	}
	var b bytes.Buffer
	r.Run(e, &b, harness.Quick)
	return b.Bytes()
}

// openCache builds a fresh store over dir.
func openCache(t *testing.T, dir string, mode resultcache.Mode) *resultcache.Store {
	t.Helper()
	store, err := resultcache.Open(dir, mode)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// pinVersion makes the code-version stamp deterministic for one test.
func pinVersion(t *testing.T, v string) {
	t.Helper()
	resultcache.SetCodeVersion(v)
	t.Cleanup(func() { resultcache.SetCodeVersion("") })
}

// TestCacheHitRerunByteIdentical is the acceptance property: with a warm
// cache, a rerun serves every job from disk (hits == job count) and the
// rendered tables are byte-identical to the cold run, at every worker
// count.
func TestCacheHitRerunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	for _, name := range cachedExperiments {
		t.Run(name, func(t *testing.T) {
			pinVersion(t, "cache-test-v1")
			store := openCache(t, t.TempDir(), resultcache.ReadWrite)
			cold := renderWith(t, store, name, 1)
			st := store.Stats()
			if st.Hits != 0 || st.Misses == 0 || st.Stores != st.Misses {
				t.Fatalf("cold-run stats: %+v", st)
			}
			jobs := st.Misses
			for _, workers := range []int{1, 4, 8} {
				before := store.Stats()
				warm := renderWith(t, store, name, workers)
				if !bytes.Equal(cold, warm) {
					t.Fatalf("workers=%d: warm run differs from cold\n--- cold ---\n%s--- warm ---\n%s",
						workers, cold, warm)
				}
				d := store.Stats().Sub(before)
				if d.Hits != jobs || d.Misses != 0 {
					t.Fatalf("workers=%d: warm-run delta %+v, want %d hits", workers, d, jobs)
				}
			}
		})
	}
}

// TestCacheWarmShards1ServesShards4 covers the nightly render job's
// warm re-render on the two experiments it publishes: a cache warmed by
// a sweep run as one shard (-workers 1) replays headline and loadcurve
// sharded across four workers with hit count == job count and the
// artifact byte-identical. The job keys carry no worker count, so the
// direction of the change does not matter.
func TestCacheWarmShards1ServesShards4(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	for _, name := range []string{"headline", "loadcurve"} {
		t.Run(name, func(t *testing.T) {
			pinVersion(t, "cache-test-v1")
			store := openCache(t, t.TempDir(), resultcache.ReadWrite)
			cold := renderWith(t, store, name, 1)
			jobs := store.Stats().Misses
			if jobs == 0 {
				t.Fatalf("%s planned no cacheable jobs", name)
			}
			before := store.Stats()
			warm := renderWith(t, store, name, 4)
			if !bytes.Equal(cold, warm) {
				t.Fatalf("warm workers=4 render differs from cold workers=1 render\n--- cold ---\n%s--- warm ---\n%s",
					cold, warm)
			}
			if d := store.Stats().Sub(before); d.Hits != jobs || d.Misses != 0 {
				t.Fatalf("warm delta %+v, want %d hits and zero misses", d, jobs)
			}
		})
	}
}

// TestCacheNonNeutralPerturbationMisses proves keys track the machine:
// no Config field is masked out of the key, so the same config keys the
// same and perturbing a result-affecting field (a DRAM timing parameter)
// forces a fresh miss, never a stale hit.
func TestCacheNonNeutralPerturbationMisses(t *testing.T) {
	pinVersion(t, "cache-test-v1")
	cfg := system.DefaultConfig(system.PIMMMU)
	r := &harness.Runner{}
	base := r.NewJob("test/v1", cfg, "op")
	if r.NewJob("test/v1", system.DefaultConfig(system.PIMMMU), "op").Key != base.Key {
		t.Fatal("identical configs keyed differently")
	}
	timing := cfg
	timing.Mem.DRAM.Timing.CL++
	if r.NewJob("test/v1", timing, "op").Key == base.Key {
		t.Fatal("DRAM timing change did not alter the cache key")
	}
}

// TestCacheCorruptEntriesRecomputed damages every stored entry —
// truncation, bit flips, emptying — and requires the rerun to reject
// them all, recompute, repair the files, and still render the cold
// artifact byte for byte.
func TestCacheCorruptEntriesRecomputed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	pinVersion(t, "cache-test-v1")
	dir := t.TempDir()
	store := openCache(t, dir, resultcache.ReadWrite)
	cold := renderWith(t, store, "fig8", 2)
	entries, err := filepath.Glob(filepath.Join(dir, "*.prc"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries written: %v (%v)", entries, err)
	}
	for i, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0: // truncate mid-payload
			data = data[:len(data)/2]
		case 1: // flip a payload bit
			data[len(data)-8] ^= 1
		case 2: // empty file
			data = nil
		}
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	before := store.Stats()
	warm := renderWith(t, store, "fig8", 2)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("recomputed run differs from cold\n--- cold ---\n%s--- recomputed ---\n%s", cold, warm)
	}
	d := store.Stats().Sub(before)
	if d.Hits != 0 || d.Rejected != uint64(len(entries)) || d.Stores != uint64(len(entries)) {
		t.Fatalf("corruption delta %+v, want %d rejections and repairs", d, len(entries))
	}
	// The repaired entries hit again.
	before = store.Stats()
	renderWith(t, store, "fig8", 2)
	if d := store.Stats().Sub(before); d.Hits != uint64(len(entries)) || d.Misses != 0 {
		t.Fatalf("repair did not stick: %+v", d)
	}
}

// TestCacheCodeVersionChangeForcesMiss proves the second half of the
// acceptance criterion: a code-version change alone — same config, same
// op — invalidates every entry.
func TestCacheCodeVersionChangeForcesMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	pinVersion(t, "build-A")
	store := openCache(t, t.TempDir(), resultcache.ReadWrite)
	cold := renderWith(t, store, "fig8", 2)
	jobs := store.Stats().Misses
	resultcache.SetCodeVersion("build-B")
	before := store.Stats()
	if got := renderWith(t, store, "fig8", 2); !bytes.Equal(cold, got) {
		t.Fatal("same-code rerun under a new stamp changed output")
	}
	if d := store.Stats().Sub(before); d.Hits != 0 || d.Misses != jobs {
		t.Fatalf("new code version delta %+v, want %d misses", d, jobs)
	}
	// Flipping back, the original entries still hit: distinct versions
	// coexist in one directory without clobbering each other's keys.
	resultcache.SetCodeVersion("build-A")
	before = store.Stats()
	renderWith(t, store, "fig8", 2)
	if d := store.Stats().Sub(before); d.Hits != jobs {
		t.Fatalf("original version's entries lost: %+v", d)
	}
}

// TestCacheReadOnlySharing exercises -cache ro: hits serve, misses
// recompute, and nothing is ever written.
func TestCacheReadOnlySharing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	pinVersion(t, "cache-test-v1")
	dir := t.TempDir()
	// Warm half the cache in rw mode, then reopen read-only.
	rw := openCache(t, dir, resultcache.ReadWrite)
	cold := renderWith(t, rw, "fig8", 2)
	ro := openCache(t, dir, resultcache.ReadOnly)
	if got := renderWith(t, ro, "fig8", 2); !bytes.Equal(cold, got) {
		t.Fatal("read-only warm run differs")
	}
	st := ro.Stats()
	if st.Hits == 0 || st.Stores != 0 || st.BytesWritten != 0 {
		t.Fatalf("read-only stats %+v", st)
	}
	// A different experiment misses and recomputes without writing.
	before := ro.Stats()
	renderWith(t, ro, "replay", 2)
	d := ro.Stats().Sub(before)
	if d.Misses == 0 || d.Stores != 0 {
		t.Fatalf("read-only miss path delta %+v", d)
	}
}
