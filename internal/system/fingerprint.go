package system

import "repro/internal/resultcache"

// configSchema versions the fingerprint derivation itself; bump it when
// the meaning of an existing field changes without its name or type
// changing (the canonical encoding cannot see that), or when fields leave
// the encoding.
//
// v3: the parallel event-engine settings left Config (and cpu.Config),
// so the encoding and the key layout changed. Caches warmed under v2 never hit again — prune them with
// `pimmu-sim -cache-gc` after a code-version bump, or leave them to age
// out.
const configSchema = "system.Config/v3"

// Fingerprint returns a stable content digest of the configuration:
// every exported field — recursively, covering the memory system, CPU,
// PIM geometry, DCE, energy model, transfer engines and design point —
// is canonically encoded and hashed. Two configs share a fingerprint iff
// every field agrees (proven per-field by the reflection-based
// sensitivity test), so the fingerprint is a sound cache-key component
// for any result that is a pure function of the machine: by the
// determinism contract, that is every simulation result. Parallelism
// (harness.Runner.Workers) is not a Config field, so it never reaches
// the key.
func (c Config) Fingerprint() string {
	return resultcache.KeyOf(configSchema, string(resultcache.Canonical(c)))
}
