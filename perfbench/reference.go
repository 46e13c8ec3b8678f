package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// output is what one simulated design point produced: the values the
// paper's figures are computed from.
type output struct {
	DurationPs int64   `json:"duration_ps"`
	Bytes      uint64  `json:"bytes"`
	DRAMCAS    uint64  `json:"dram_cas"`
	DRAMActs   uint64  `json:"dram_acts"`
	PIMCAS     uint64  `json:"pim_cas"`
	PIMActs    uint64  `json:"pim_acts"`
	EnergyJ    float64 `json:"energy_j"`
	// P50Ps and P99Ps are the open-loop driver's arrival-to-completion
	// latency percentiles (zero for transfers).
	P50Ps int64 `json:"p50_ps,omitempty"`
	P99Ps int64 `json:"p99_ps,omitempty"`
}

// reference pins, per workload and design point, the outputs of the
// default seed at default sizes.
type reference map[string]map[string]output

//go:embed reference.json
var referenceJSON []byte

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// record checks a design point's output: it must equal the point's
// output in the run's first pass (every pass, untraced or traced, runs
// the same inputs) and, when the run uses the default seed, the pinned
// reference.
func (b *bench) record(point string, out output, v *verdict) {
	if first, ok := b.outputs[point]; ok {
		v.expect(out == first, "output %+v differs from the first pass's %+v", out, first)
	} else {
		b.outputs[point] = out
	}
	if b.seed != defaultSeed || b.ref == nil {
		return
	}
	want, ok := b.ref[b.workload][point]
	v.expect(ok, "no pinned reference output")
	v.expect(!ok || want == out, "output %+v differs from the pinned reference %+v", out, want)
}

// digest hashes the outputs by point name, so runs of one seed can be
// compared at a glance.
func digest(outputs map[string]output) string {
	if len(outputs) == 0 {
		return "none"
	}
	names := make([]string, 0, len(outputs))
	for n := range outputs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s %+v\n", n, outputs[n])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
