package system

import (
	"fmt"
	"reflect"
	"testing"
)

func TestFingerprintStable(t *testing.T) {
	a := DefaultConfig(PIMMMU).Fingerprint()
	b := DefaultConfig(PIMMMU).Fingerprint()
	if a != b {
		t.Fatalf("identical configs fingerprint differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint %q is not a sha256 hex digest", a)
	}
	if DefaultConfig(Base).Fingerprint() == a {
		t.Fatal("distinct design points share a fingerprint")
	}
}

// TestFingerprintSensitivity proves — by reflection, so a newly added
// field is covered automatically — that perturbing ANY exported leaf
// field of Config changes Fingerprint(). This is the property the result
// cache's soundness rests on: no result-affecting configuration change
// can alias into a stale cache entry.
func TestFingerprintSensitivity(t *testing.T) {
	cfg := DefaultConfig(PIMMMU)
	base := cfg.Fingerprint()
	leaves := 0
	perturbLeaves(t, reflect.ValueOf(&cfg).Elem(), "Config", func(path string) {
		leaves++
		got := cfg.Fingerprint()
		if got == "" {
			t.Errorf("perturbing %s produced an empty fingerprint", path)
		}
		if got == base {
			t.Errorf("perturbing %s did not change the fingerprint", path)
		}
	})
	if leaves < 76 {
		t.Fatalf("walked only %d leaf fields; the config walk regressed", leaves)
	}
	// Every perturbation was restored, so the fingerprint is back to base.
	if cfg.Fingerprint() != base {
		t.Fatal("perturbation restore leaked state")
	}
}

// perturbLeaves visits every settable leaf field under v; at each leaf it
// flips the value, calls check, and restores the original.
func perturbLeaves(t *testing.T, v reflect.Value, path string, check func(path string)) {
	switch v.Kind() {
	case reflect.Bool:
		old := v.Bool()
		v.SetBool(!old)
		check(path)
		v.SetBool(old)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := v.Int()
		v.SetInt(old + 1)
		check(path)
		v.SetInt(old)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		old := v.Uint()
		v.SetUint(old + 1)
		check(path)
		v.SetUint(old)
	case reflect.Float32, reflect.Float64:
		old := v.Float()
		v.SetFloat(old + 1)
		check(path)
		v.SetFloat(old)
	case reflect.String:
		old := v.String()
		v.SetString(old + "~")
		check(path)
		v.SetString(old)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s is unexported; Canonical would panic — restructure the config", path, f.Name)
			}
			perturbLeaves(t, v.Field(i), path+"."+f.Name, check)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			perturbLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), check)
		}
	default:
		t.Fatalf("%s has kind %s, which the canonical encoding does not support", path, v.Kind())
	}
}
