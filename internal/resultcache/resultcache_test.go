package resultcache

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// pin makes the code-version stamp deterministic for one test.
func pin(t *testing.T, v string) {
	t.Helper()
	SetCodeVersion(v)
	t.Cleanup(func() { SetCodeVersion("") })
}

func TestStoreRoundTrip(t *testing.T) {
	pin(t, "v-test")
	s, err := Open(t.TempDir(), ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("test", "round-trip")
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on an empty store")
	}
	payload := []byte("the computed result")
	s.Put(key, payload)
	got, ok := s.Get(key)
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 || st.Rejected != 0 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesRead != uint64(len(payload)) || st.BytesWritten != uint64(len(payload)) {
		t.Fatalf("byte counters = %+v", st)
	}
}

// entryFile locates the single entry file of a store directory.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one entry file, got %v (err %v)", matches, err)
	}
	return matches[0]
}

func TestStoreRejectsCorruptEntries(t *testing.T) {
	pin(t, "v-test")
	dir := t.TempDir()
	s, err := Open(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("test", "corruption")
	payload := []byte("payload bytes that matter")
	s.Put(key, payload)
	path := entryFile(t, dir)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	restore := func() {
		if err := os.WriteFile(path, pristine, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	expectMiss := func(what string) {
		t.Helper()
		if got, ok := s.Get(key); ok {
			t.Fatalf("%s: Get returned %q, want rejection", what, got)
		}
	}

	// Truncation at every byte boundary must reject, never crash or
	// serve a partial payload.
	for cut := 0; cut < len(pristine); cut++ {
		if err := os.WriteFile(path, pristine[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		expectMiss("truncated")
	}
	// A flipped bit anywhere must reject: in the header, the embedded
	// key, the payload, or the checksum.
	for _, pos := range []int{0, 4, 5, 8, len(pristine) / 2, len(pristine) - 1} {
		restore()
		mutated := append([]byte(nil), pristine...)
		mutated[pos] ^= 0x40
		if err := os.WriteFile(path, mutated, 0o666); err != nil {
			t.Fatal(err)
		}
		expectMiss("bit flip")
	}
	// The pristine bytes still hit afterwards.
	restore()
	if got, ok := s.Get(key); !ok || string(got) != string(payload) {
		t.Fatalf("pristine entry = %q, %v", got, ok)
	}
	if rej := s.Stats().Rejected; rej == 0 {
		t.Fatal("rejections not counted")
	}
	// Recompute-and-overwrite repairs the entry.
	mutated := append([]byte(nil), pristine...)
	mutated[len(mutated)-1] ^= 1
	if err := os.WriteFile(path, mutated, 0o666); err != nil {
		t.Fatal(err)
	}
	expectMiss("checksum flip")
	s.Put(key, payload)
	if got, ok := s.Get(key); !ok || string(got) != string(payload) {
		t.Fatalf("after repair = %q, %v", got, ok)
	}
}

func TestStoreRejectsStaleCodeVersion(t *testing.T) {
	pin(t, "v-old")
	dir := t.TempDir()
	s, err := Open(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("test", "stale")
	s.Put(key, []byte("old result"))
	if _, ok := s.Get(key); !ok {
		t.Fatal("same-version entry should hit")
	}
	SetCodeVersion("v-new")
	if got, ok := s.Get(key); ok {
		t.Fatalf("stale entry served: %q", got)
	}
	// The new version overwrites and hits again.
	s.Put(key, []byte("new result"))
	if got, ok := s.Get(key); !ok || string(got) != "new result" {
		t.Fatalf("after overwrite = %q, %v", got, ok)
	}
}

func TestStoreReadOnlyNeverWrites(t *testing.T) {
	pin(t, "v-test")
	dir := t.TempDir()
	rw, err := Open(dir, ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("test", "ro")
	rw.Put(key, []byte("shared"))

	ro, err := Open(dir, ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := ro.Get(key); !ok || string(got) != "shared" {
		t.Fatalf("ro Get = %q, %v", got, ok)
	}
	ro.Put(KeyOf("test", "ro2"), []byte("must not land"))
	if st := ro.Stats(); st.Stores != 0 || st.BytesWritten != 0 {
		t.Fatalf("read-only store wrote: %+v", st)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	if err != nil || len(entries) != 1 {
		t.Fatalf("directory gained entries: %v", entries)
	}
	// A read-only store over a missing directory just misses.
	ro2, err := Open(filepath.Join(dir, "missing"), ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ro2.Get(key); ok {
		t.Fatal("hit from a missing directory")
	}
}

func TestOpenOffAndNilStore(t *testing.T) {
	for _, tc := range []struct {
		dir  string
		mode Mode
	}{{"", ReadWrite}, {"somewhere", Off}, {"", Off}} {
		s, err := Open(tc.dir, tc.mode)
		if err != nil || s != nil {
			t.Fatalf("Open(%q, %v) = %v, %v; want nil, nil", tc.dir, tc.mode, s, err)
		}
	}
	// All methods are nil-safe: caching off is one code path, not a
	// caller-side branch.
	var s *Store
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil store hit")
	}
	s.Put("k", []byte("x"))
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil store stats = %+v", st)
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{"off": Off, "rw": ReadWrite, "ro": ReadOnly} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestStoreConcurrentPutGet(t *testing.T) {
	pin(t, "v-test")
	s, err := Open(t.TempDir(), ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer one key and several distinct keys from many goroutines: the
	// atomic-rename discipline must never let a reader observe a torn
	// entry.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shared := KeyOf("shared")
			own := KeyOf("own", strings.Repeat("x", w+1))
			payload := []byte(strings.Repeat("p", 128))
			for i := 0; i < 50; i++ {
				s.Put(shared, payload)
				if got, ok := s.Get(shared); ok && string(got) != string(payload) {
					t.Errorf("torn shared entry: %d bytes", len(got))
					return
				}
				s.Put(own, payload)
				if got, ok := s.Get(own); !ok || string(got) != string(payload) {
					t.Errorf("own entry lost: %v", ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestKeyOfBoundaries(t *testing.T) {
	// Length prefixes make part boundaries unambiguous.
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("boundary shift collided")
	}
	if KeyOf("a", "") == KeyOf("a") {
		t.Fatal("empty trailing part collided")
	}
	if KeyOf("a", "b") != KeyOf("a", "b") {
		t.Fatal("KeyOf not deterministic")
	}
}

func TestCanonical(t *testing.T) {
	type inner struct {
		N int
		S string
	}
	type cfg struct {
		A    bool
		B    int64
		C    uint32
		D    float64
		In   inner
		List [2]int
	}
	v := cfg{A: true, B: -7, C: 9, D: 0.5, In: inner{N: 1, S: "x"}, List: [2]int{3, 4}}
	a := string(Canonical(v))
	if a != string(Canonical(v)) {
		t.Fatal("Canonical not deterministic")
	}
	for _, want := range []string{"A=true", "B=-7", "C=9", "In.N=1", `In.S="x"`, "List.len=2", "List[1]=4"} {
		if !strings.Contains(a, want) {
			t.Fatalf("Canonical missing %q in:\n%s", want, a)
		}
	}
	// Every field perturbation changes the encoding.
	mut := v
	mut.D = 0.25
	if string(Canonical(mut)) == a {
		t.Fatal("float change aliased")
	}
	// Unsupported kinds fail loudly rather than silently escaping the key.
	defer func() {
		if recover() == nil {
			t.Fatal("map field did not panic")
		}
	}()
	Canonical(struct{ M map[string]int }{})
}

func TestCodeVersionOverrides(t *testing.T) {
	pin(t, "explicit")
	if got := CodeVersion(); got != "explicit" {
		t.Fatalf("override ignored: %q", got)
	}
	SetCodeVersion("")
	t.Setenv("PIMMU_CODE_VERSION", "src-hash")
	if got := CodeVersion(); got != "env:src-hash" {
		t.Fatalf("env stamp = %q", got)
	}
	t.Setenv("PIMMU_CODE_VERSION", "")
	auto := CodeVersion()
	if auto == "" || auto == "unversioned" {
		t.Fatalf("automatic stamp unresolved: %q", auto)
	}
	if auto != CodeVersion() {
		t.Fatal("automatic stamp unstable")
	}
}
