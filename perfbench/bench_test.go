package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// tinySizes shrinks every workload to a fast pass.
func tinySizes() sizes {
	return sizes{
		transferBytes: 512 << 10,
		contendBytes:  256 << 10,
		loadArrivals:  1 << 10,
		traceRecords:  1 << 10,
		warmTrips:     20,
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, names []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return endToEnd, perLayer, names
}

// TestEveryWorkloadEmitsItsMetrics runs a tiny untraced and traced pass
// of every declared workload and checks each prints exactly the
// declared metrics with their units, and passes its own checks.
func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	endToEnd, perLayer, names := declared(t)
	if got := workloadNames(); !equalSorted(got, names) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, names)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			b := newBench(name, 7, t.TempDir(), nil)
			res, err := b.measure(workloads[name], tinySizes(), time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					name, traced, res.Correct, res.Attempted, res.Failed, b.failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for n, unit := range want {
				if m, ok := res.Metrics[n]; !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, n, m, unit)
				}
			}
			if !traced {
				for n, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
					}
				}
			}
		}
	}
}

// TestSelfSharesSumToOne checks the profile attribution accounts for
// all sampled time.
func TestSelfSharesSumToOne(t *testing.T) {
	b := newBench("openloop", 7, t.TempDir(), nil)
	res, err := b.measure(newOpenLoop, tinySizes(), 200*time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Metrics["runtime.self_share"].Value
	for _, l := range profiledLayers {
		sum += res.Metrics[l+".self_share"].Value
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("self shares sum to %v", sum)
	}
	if res.Metrics["dram.jedec_violations"].Value != 0 || res.Metrics["sim.events"].Value == 0 {
		t.Errorf("traced counters: %+v", res.Metrics)
	}
}

// TestPointLatencyMedians checks a simulation workload's op_p50_ms is
// taken over each design point's median across passes, so one noisy
// pass of a point does not move it.
func TestPointLatencyMedians(t *testing.T) {
	h := half{
		opLat: []float64{9, 9, 9},
		byPoint: map[string][]float64{
			"a": {0.001, 0.001, 0.009},
			"b": {0.002, 0.009, 0.002},
			"c": {0.003, 0.003, 0.003},
		},
	}
	m := endToEnd(h)
	if got := m["op_p50_ms"].Value; got < 1.999 || got > 2.001 {
		t.Errorf("op_p50_ms = %v, want 2 (the median of point medians 1, 2, 3)", got)
	}
	if got := m["op_p99_ms"].Value; got < 2.9 || got > 3.001 {
		t.Errorf("op_p99_ms = %v, want about 3 (the slowest point median)", got)
	}
}

// TestPerturbedReferenceFails shows the reference comparison can fail:
// a pinned output that differs in one picosecond makes the run
// incorrect.
func TestPerturbedReferenceFails(t *testing.T) {
	pin := newBench("transfer", defaultSeed, t.TempDir(), nil)
	if _, err := pin.measure(newTransfer, tinySizes(), time.Millisecond, false); err != nil {
		t.Fatal(err)
	}
	same := reference{"transfer": map[string]output{}}
	for k, v := range pin.outputs {
		same["transfer"][k] = v
	}
	b := newBench("transfer", defaultSeed, t.TempDir(), same)
	res, err := b.measure(newTransfer, tinySizes(), time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("unperturbed reference failed: %v", b.failures)
	}
	perturbed := reference{"transfer": map[string]output{}}
	for k, v := range pin.outputs {
		perturbed["transfer"][k] = v
	}
	for k, v := range perturbed["transfer"] {
		v.DurationPs++
		perturbed["transfer"][k] = v
		break
	}
	b = newBench("transfer", defaultSeed, t.TempDir(), perturbed)
	res, err = b.measure(newTransfer, tinySizes(), time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || float64(res.Failed)/float64(res.Attempted) <= 0 {
		t.Errorf("perturbed reference passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestReferenceCoversEveryPoint checks the pinned reference names
// exactly the design points each simulation workload runs.
func TestReferenceCoversEveryPoint(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"transfer", "contended", "openloop"} {
		b := newBench(name, defaultSeed, t.TempDir(), nil)
		w := workloads[name](b, tinySizes()).(*simWorkload)
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		var points, pinned []string
		for _, p := range w.points {
			points = append(points, p.name)
		}
		for p := range ref[name] {
			pinned = append(pinned, p)
		}
		if !equalSorted(points, pinned) {
			t.Errorf("%s runs %v, reference pins %v", name, points, pinned)
		}
	}
}

func equalSorted(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
