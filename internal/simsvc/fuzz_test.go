package simsvc

import (
	"bytes"
	"testing"
)

// FuzzJobSpec feeds POST /jobs bodies through the submit-time checks.
// Decoding and Validate never panic, an accepted spec never asks for
// more than maxCapacityBytes of device or workload capacity, and its
// identity decodes back to a spec with the same cache key: the identity
// bytes a cache entry stores are a lossless spelling of the spec whose
// result it holds.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"profile":"ssd","workload":"synthetic","params":{"ops":1000,"capacity_bytes":4194304,"read_frac":0.5,"seed":3}}`,
		`{"profile":"ssd","workload":"synthetic","options":{"max_pending":8,"scheduler":"swtf","scheme":"hybrid"},"tenant":7}`,
		`{"profile":"ssd","workload":"postmark","tenants":[{"tenant":1,"weight":2,"modulation":{"kind":"bursty","duty":0.5}},{"tenant":2,"params":{"seed":9}}]}`,
		`{"profile":"hdd","workload":"synthetic","fault":{"transient":{"rate":0.01,"kinds":"w"},"deaths":[{},{"element":2,"after_ops":10}],"power_loss":{"at_ops":5}}}`,
		`{"profile":"ssd","workload":"synthetic","precondition_frac":-0,"op_limit":0,"params":{"read_frac":1e-320}}`,
		`{"profile":"nope"}`,
		// The two shapes of the capacity bug: a 1 PiB device and a 1 PiB
		// postmark file system, each an out-of-memory crash if accepted.
		`{"profile":"S4slc_sim","workload":"synthetic","params":{"ops":10},"options":{"capacity_bytes":1125899906842624}}`,
		`{"profile":"hdd","workload":"postmark","params":{"transactions":10,"capacity_bytes":1125899906842624}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := DecodeJSON[JobSpec](bytes.NewReader(body))
		if err != nil || spec.Validate() != nil {
			return
		}
		if spec.Options.CapacityBytes > maxCapacityBytes || spec.Params.CapacityBytes > maxCapacityBytes {
			t.Fatalf("accepted a capacity past the cap: %s", body)
		}
		identity := spec.Canonical()
		back, err := DecodeJSON[JobSpec](bytes.NewReader(identity))
		if err != nil {
			t.Fatalf("identity %s does not decode: %v", identity, err)
		}
		if back.Key() != spec.Key() {
			t.Fatalf("identity round trip changed the key:\n in: %s\nout: %s", identity, back.Canonical())
		}
	})
}
