package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// profiledLayers are the packages the traced run's CPU profile is
// summed into: every repro/internal package a workload reaches, plus
// the benchmark's own code ("bench"). Everything else — the Go
// runtime, the standard library, packages not listed — is the
// "runtime" remainder, so the shares sum to one.
var profiledLayers = []string{
	"addrmap", "cache", "clock", "contend", "core", "cpu", "dram", "energy",
	"harness", "mem", "memsys", "pim", "pimms", "resultcache", "serve",
	"sim", "stats", "sweep", "system", "trace", "transpose", "xfer", "bench",
}

// perLayer reduces a traced run to the per-layer metrics. Counters are
// deterministic per pass and come from the traced half; times per
// event and per command divide the untraced half's wall time, which
// the end-to-end metric measures.
func (b *bench) perLayer(plain, tr half, shares map[string]float64) map[string]metric {
	c := func(name string) float64 { return median(tr.counters[name]) }
	total := func(name string) float64 {
		var t float64
		for _, v := range tr.counters[name] {
			t += v
		}
		return t
	}
	wallNs := median(plain.wall) * 1e9
	spanMs := func(name string) float64 { return median(b.spans.durations(name)) * 1e3 }
	m := map[string]metric{
		"sim.events":            {c("sim.events"), "count"},
		"sim.ns_per_event":      {ratio(wallNs, c("sim.events")), "ns"},
		"dram.cmds":             {c("dram.cmds"), "count"},
		"dram.ns_per_cmd":       {ratio(wallNs, c("dram.cmds")), "ns"},
		"dram.row_hit_ratio":    {ratio(total("dram.row_hits"), total("dram.row_cas")), "ratio"},
		"dram.queue_full":       {c("dram.queue_full"), "count"},
		"dram.jedec_violations": {total("dram.jedec_violations"), "count"},
		"cache.llc_hit_ratio":   {ratio(total("cache.llc_hits"), total("cache.llc_accesses")), "ratio"},
		"cpu.busy_ratio":        {ratio(total("cpu.busy_ps"), total("cpu.core_ps")), "ratio"},
		"gc.cpu_s":              {median(tr.gcCPU), "s"},
		"trace.gen_ms":          {spanMs("trace.Generate"), "ms"},
		"trace.encode_ms":       {spanMs("trace.Encode"), "ms"},
		"trace.decode_ms":       {spanMs("trace.Decode"), "ms"},
		"trace.driver_retries":  {c("trace.driver_retries"), "count"},
		"harness.plan_us":       {mean(b.spans.durations("harness.Plan")) * 1e6, "us"},
		"resultcache.hits":      {c("resultcache.hits"), "count"},
		"resultcache.misses":    {c("resultcache.misses"), "count"},
		"serve.submit_us":       {spanMs("http.submit") * 1e3, "us"},
		"serve.events_us":       {spanMs("http.events") * 1e3, "us"},
		"serve.result_us":       {spanMs("http.result") * 1e3, "us"},
		"serve.rejected":        {c("serve.rejected"), "count"},
		"serve.dedup_hits":      {c("serve.dedup_hits"), "count"},
		"serve.store_hits":      {c("serve.store_hits"), "count"},
		"trace_overhead_ratio":  {ratio(median(tr.wall), median(plain.wall)), "ratio"},
		"runtime.self_share":    {shares["runtime"], "ratio"},
		"profile.cpu_samples":   {shares["samples"], "count"},
	}
	for _, l := range profiledLayers {
		m[l+".self_share"] = metric{shares[l], "ratio"}
	}
	return m
}

func mean(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return ratio(t, float64(len(v)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// selfShares sums a gzipped pprof CPU profile's flat time by layer:
// each sample is charged to the innermost function of its leaf
// location. The result maps every profiled layer and "runtime" to its
// share of all sampled time, and "samples" to the number of samples.
func selfShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs     []string
		funcName = map[uint64]uint64{} // function id -> string index
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		samples  []struct {
			loc   uint64
			n, ns uint64
		}
	)
	err = pbFields(raw, func(num int, val uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			err := pbFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					locs = pbPacked(locs, v, d)
				case 2:
					vals = pbPacked(vals, v, d)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, struct {
					loc   uint64
					n, ns uint64
				}{locs[0], vals[0], vals[len(vals)-1]})
			}
		case 4: // Location
			var id, fn uint64
			seenLine := false
			err := pbFields(data, func(n int, v uint64, d []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !seenLine:
					seenLine = true
					return pbFields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			err := pbFields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, l := range profiledLayers {
		known[l] = true
	}
	byLayer := map[string]float64{}
	var all, count float64
	for _, s := range samples {
		count += float64(s.n)
		name := ""
		if i := funcName[locFunc[s.loc]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		l := layerOf(name)
		if !known[l] {
			l = "runtime"
		}
		byLayer[l] += float64(s.ns)
		all += float64(s.ns)
	}
	shares := map[string]float64{"samples": count}
	rest := 1.0
	for _, l := range profiledLayers {
		shares[l] = ratio(byLayer[l], all)
		rest -= shares[l]
	}
	shares["runtime"] = rest
	return shares, nil
}

// layerOf names the layer a profiled function belongs to.
func layerOf(fn string) string {
	const internal = "repro/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return "runtime"
}

// pbFields walks the fields of one protobuf message, passing each
// field's number with its varint value (wire types 0, 1 and 5) or its
// bytes (wire type 2).
func pbFields(b []byte, fn func(num int, val uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var val uint64
		var data []byte
		switch wire {
		case 0:
			val, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			val, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			val, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errors.New("unknown protobuf wire type")
		}
		if err := fn(num, val, data); err != nil {
			return err
		}
	}
	return nil
}

// pbPacked appends a repeated varint field's values, whether encoded
// packed (data) or as a single value (v).
func pbPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst
}
