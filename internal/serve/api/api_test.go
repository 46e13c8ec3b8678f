package api

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestCheckSchema(t *testing.T) {
	if err := CheckSchema(SchemaVersion); err != nil {
		t.Fatalf("current schema rejected: %v", err)
	}
	for _, bad := range []string{"", "pimmu-serve/v0", "pimmu-serve/v1", "pimmu-serve/v3", "v2"} {
		err := CheckSchema(bad)
		if err == nil {
			t.Fatalf("schema %q accepted", bad)
		}
		if !strings.Contains(err.Error(), SchemaVersion) {
			t.Fatalf("mismatch error %q does not name the supported schema", err)
		}
	}
}

func TestNewResultStampsAndEncodes(t *testing.T) {
	type point struct {
		Label string
		Thr   float64
	}
	res, err := NewResult("fig8", "quick", []point{{"a", 1.5}, {"b", 2.0}}, "table\n")
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != SchemaVersion {
		t.Fatalf("schema stamp %q", res.Schema)
	}
	if res.Experiment != "fig8" || res.Scale != "quick" || res.Text != "table\n" {
		t.Fatalf("fields not carried: %+v", res)
	}
	var back []point
	if err := json.Unmarshal(res.Results, &back); err != nil {
		t.Fatalf("results not valid JSON: %v", err)
	}
	if len(back) != 2 || back[0].Label != "a" || back[1].Thr != 2.0 {
		t.Fatalf("results round-trip: %+v", back)
	}
}

func TestNewResultRejectsUnencodableResults(t *testing.T) {
	if _, err := NewResult("x", "quick", func() {}, ""); err == nil {
		t.Fatal("function value encoded")
	}
}

func TestNewResultDeterministicBytes(t *testing.T) {
	// The server stores marshaled result bytes and serves them verbatim;
	// identical inputs must marshal identically.
	type row struct{ A, B float64 }
	build := func() []byte {
		res, err := NewResult("headline", "full", []row{{0.1, 1.0 / 3.0}}, "t")
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(JobResult{Schema: SchemaVersion, Key: "k", Result: res})
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	if a, b := build(), build(); string(a) != string(b) {
		t.Fatalf("identical inputs marshaled differently:\n%s\n%s", a, b)
	}
}
