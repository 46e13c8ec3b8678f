package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/resultcache"
	"repro/internal/serve"
	"repro/internal/serve/api"
)

// The serve workload's experiments: the cold phase submits the two
// cheapest simulating experiments; the warm phase resubmits them and
// table1, whose plan has no jobs.
var (
	coldExperiments = []string{"loadcurve", "replay"}
	warmExperiments = []string{"loadcurve", "replay", "table1"}
)

// serveClients is the number of closed-loop clients in the warm phase,
// matching the server's MaxActive.
const serveClients = 2

// serveWorkload runs the job server in process behind real loopback
// HTTP, on a fresh result store each pass.
type serveWorkload struct {
	b   *bench
	sz  sizes
	rng *rand.Rand

	dir   string
	store *resultcache.Store
	hs    *httptest.Server

	mu      sync.Mutex
	texts   map[string]map[string]int // experiment -> result text -> responses
	coldRTT []float64
}

func newServe(b *bench, sz sizes) workload {
	return &serveWorkload{
		b:     b,
		sz:    sz,
		rng:   rand.New(rand.NewPCG(b.seed, 0x7365727665)),
		texts: map[string]map[string]int{},
	}
}

// setup opens a fresh store and starts the first server on it.
func (w *serveWorkload) setup() error {
	dir, err := os.MkdirTemp(w.b.outDir, "store-")
	if err != nil {
		return err
	}
	store, err := resultcache.Open(dir, resultcache.ReadWrite)
	if err != nil {
		return err
	}
	w.dir, w.store = dir, store
	w.hs = w.startServer()
	return nil
}

func (w *serveWorkload) startServer() *httptest.Server {
	sp := w.b.spans.begin("serve.New", w.b.spans.parent)
	defer w.b.spans.end(sp)
	srv := serve.New(serve.Config{Store: w.store, MaxActive: serveClients, Workers: 1})
	return httptest.NewServer(srv.Handler())
}

// expectation checks a submission's response.
type expectation func(exp string, code int, st api.JobStatus) (ok bool, want string)

func expectNew(_ string, code int, st api.JobStatus) (bool, string) {
	return code == http.StatusAccepted && !st.Deduped && !st.Cached, "202, a new job"
}

func expectStoreHit(_ string, code int, st api.JobStatus) (bool, string) {
	return code == http.StatusOK && st.Cached, "200, served from the store"
}

// expectWarm accepts only dedup hits, except that table1 is a new
// (zero-job) submission the first time a server sees it.
func expectWarm(exp string, code int, st api.JobStatus) (bool, string) {
	if code == http.StatusOK && st.Deduped {
		return true, ""
	}
	return exp == "table1" && code == http.StatusAccepted, "200, a dedup hit"
}

func (w *serveWorkload) run() {
	b := w.b
	// Cold: each submission simulates and fills the store.
	cold := append([]string(nil), coldExperiments...)
	w.rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	client := w.hs.Client()
	for _, exp := range cold {
		t := time.Now()
		w.roundTrip(client, w.hs.URL, exp, expectNew)
		w.coldRTT = append(w.coldRTT, time.Since(t).Seconds())
	}
	// Store hits: a fresh server on the same store simulates nothing.
	w.hs.Close()
	w.hs = w.startServer()
	client = w.hs.Client()
	for _, exp := range cold {
		w.roundTrip(client, w.hs.URL, exp, expectStoreHit)
	}
	// Warm: closed-loop clients resubmit a seeded mix.
	seqs := make([][]string, serveClients)
	for i := 0; i < w.sz.warmTrips; i++ {
		c := i % serveClients
		seqs[c] = append(seqs[c], warmExperiments[w.rng.IntN(len(warmExperiments))])
	}
	t := time.Now()
	var wg sync.WaitGroup
	for _, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, exp := range seq {
				t0 := time.Now()
				w.roundTrip(client, w.hs.URL, exp, expectWarm)
				b.opDone("", time.Since(t0))
			}
		}()
	}
	wg.Wait()
	b.opWindow(time.Since(t))
}

// roundTrip submits one job, follows its event stream when it is not
// yet done, fetches its result, and settles one operation.
func (w *serveWorkload) roundTrip(c *http.Client, base, exp string, want expectation) {
	var v verdict
	w.roundTripChecked(c, base, exp, want, &v)
	w.b.settle("serve "+exp, v)
}

func (w *serveWorkload) roundTripChecked(c *http.Client, base, exp string, want expectation, v *verdict) {
	b := w.b
	parent := b.spans.begin("serve round trip "+exp, b.spans.parent)
	defer b.spans.end(parent)

	req, _ := json.Marshal(api.JobRequest{Schema: api.SchemaVersion, Experiment: exp, Workers: 1})
	sp := b.spans.begin("http.submit", parent)
	var st api.JobStatus
	code, err := call(c, http.MethodPost, base+"/v1/jobs", req, &st)
	b.spans.end(sp)
	if code == http.StatusTooManyRequests {
		b.count("serve.rejected", 1)
	}
	if err != nil {
		v.expect(false, "submit: %v", err)
		return
	}
	ok, wantText := want(exp, code, st)
	v.expect(ok, "submit answered %d %+v, want %s", code, st, wantText)
	if st.Deduped {
		b.count("serve.dedup_hits", 1)
	}
	if st.Cached && !st.Deduped {
		b.count("serve.store_hits", 1)
	}
	if st.State != api.StateDone {
		sp = b.spans.begin("http.events", parent)
		state, err := events(c, base+"/v1/jobs/"+st.ID+"/events")
		b.spans.end(sp)
		if err != nil || state != api.StateDone {
			v.expect(false, "job %s ended %q: %v", st.ID, state, err)
			return
		}
	}
	sp = b.spans.begin("http.result", parent)
	var res api.JobResult
	code, err = call(c, http.MethodGet, base+"/v1/jobs/"+st.ID+"/result", nil, &res)
	b.spans.end(sp)
	if err != nil || code != http.StatusOK {
		v.expect(false, "result answered %d: %v", code, err)
		return
	}
	w.mu.Lock()
	if w.texts[exp] == nil {
		w.texts[exp] = map[string]int{}
	}
	w.texts[exp][res.Result.Text]++
	w.mu.Unlock()
}

// call makes one request and decodes a 2xx JSON body into out. Any
// other status is returned with a nil error unless the body fails to
// read.
func call(c *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding %s %s: %w", method, url, err)
	}
	return resp.StatusCode, nil
}

// events reads a job's NDJSON event stream to its end and returns the
// last state seen.
func events(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events answered %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	state := ""
	for {
		var ev api.JobEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return state, nil
		} else if err != nil {
			return state, err
		}
		state = ev.State
	}
}

// check times the harness plans the server builds on every submit,
// folds in the store's counters, and tears the pass down.
func (w *serveWorkload) check() {
	b := w.b
	r := &harness.Runner{Workers: 1}
	for _, exp := range warmExperiments {
		e, err := harness.Lookup(exp)
		if err != nil {
			panic(err)
		}
		sp := b.spans.begin("harness.Plan", b.spans.parent)
		e.Plan(r, harness.Quick)
		b.spans.end(sp)
	}
	st := w.store.Stats()
	b.count("resultcache.hits", float64(st.Hits))
	b.count("resultcache.misses", float64(st.Misses))
	w.hs.Close()
	var v verdict
	err := os.RemoveAll(w.dir)
	v.expect(err == nil, "removing the pass's store: %v", err)
	b.settle("serve store clean-up", v)
}

// finish compares every result text the server returned with the text
// harness.ComputeResult renders for the same experiment; each
// mismatching response is a failed operation.
func (w *serveWorkload) finish() {
	b := w.b
	for _, exp := range warmExperiments {
		texts := w.texts[exp]
		if len(texts) == 0 {
			continue
		}
		e, err := harness.Lookup(exp)
		if err != nil {
			panic(err)
		}
		want, err := harness.ComputeResult(&harness.Runner{Workers: 1}, e, harness.Quick)
		for text, n := range texts {
			var v verdict
			v.expect(err == nil, "ComputeResult: %v", err)
			v.expect(text == want.Text, "served text differs from harness.ComputeResult")
			b.fail("serve "+exp+" result", v, n)
		}
	}
	b.extra = append(b.extra, describe("cold_rtt", w.coldRTT, "s"))
}
