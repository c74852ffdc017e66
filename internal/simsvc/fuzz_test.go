package simsvc

import (
	"bytes"
	"testing"
)

// FuzzJobSpec feeds POST /jobs bodies through the submit-time checks.
// Decoding and Validate never panic, and an accepted spec's identity
// decodes back to a spec with the same cache key, so an owner that
// recomputes from identity bytes (GET /cache/{key}?wait=1) runs exactly
// the spec it was asked for.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"profile":"ssd","workload":"synthetic","params":{"ops":1000,"capacity_bytes":4194304,"read_frac":0.5,"seed":3}}`,
		`{"profile":"ssd","workload":"synthetic","options":{"shards":2,"scheduler":"swtf","scheme":"hybrid"},"tenant":7}`,
		`{"profile":"ssd","workload":"postmark","tenants":[{"tenant":1,"weight":2,"modulation":{"kind":"bursty","duty":0.5}},{"tenant":2,"params":{"seed":9}}]}`,
		`{"profile":"hdd","workload":"synthetic","fault":{"transient":{"rate":0.01,"kinds":"w"},"deaths":[{},{"element":2,"after_ops":10}],"power_loss":{"at_ops":5}}}`,
		`{"profile":"ssd","workload":"synthetic","precondition_frac":-0,"op_limit":0,"params":{"read_frac":1e-320}}`,
		`{"profile":"nope"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := DecodeJSON[JobSpec](bytes.NewReader(body))
		if err != nil || spec.Validate() != nil {
			return
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
