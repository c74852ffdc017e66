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
		spec, err := decodeJSON[JobSpec](bytes.NewReader(body))
		if err != nil || spec.Validate() != nil {
			return
		}
		if spec.Options.CapacityBytes > maxCapacityBytes || spec.Params.CapacityBytes > maxCapacityBytes {
			t.Fatalf("accepted a capacity past the cap: %s", body)
		}
		identity := spec.Canonical()
		back, err := decodeJSON[JobSpec](bytes.NewReader(identity))
		if err != nil {
			t.Fatalf("identity %s does not decode: %v", identity, err)
		}
		if back.Key() != spec.Key() {
			t.Fatalf("identity round trip changed the key:\n in: %s\nout: %s", identity, back.Canonical())
		}
	})
}

// FuzzExpand feeds POST /campaigns bodies to expand under a small
// guard. A hostile spec gets an error, never a panic; an accepted one
// never yields more cells than the guard, and every cell is a spec the
// job manager would accept.
func FuzzExpand(f *testing.F) {
	for _, seed := range []string{
		`{"template":{"profile":"ssd","workload":"synthetic","params":{"ops":100,"capacity_bytes":4194304}},"axes":[{"name":"params.seed","range":{"from":1,"to":3}},{"name":"tenant","values":[1,2]}]}`,
		`{"template":{"profile":"ssd","workload":"synthetic","tenants":[{"tenant":1},{"tenant":2}]},"axes":[{"name":"tenants.1.weight","values":[1,4]},{"name":"fault.transient.rate","values":[0,0.5]}]}`,
		`{"template":{"profile":"ssd","workload":"synthetic"},"axes":[{"name":"options.scheduler","values":["fcfs","swtf","bogus"]}]}`,
		// The two shapes of the unbounded-range bug: a range far past
		// the guard, and one whose stepping wraps past math.MaxInt64.
		`{"template":{"profile":"ssd","workload":"synthetic"},"axes":[{"name":"params.seed","range":{"from":1,"to":10000000}}]}`,
		`{"template":{"profile":"ssd","workload":"synthetic"},"axes":[{"name":"params.seed","range":{"from":9223372036854775806,"to":9223372036854775807}}]}`,
		`{"template":{},"axes":[{"name":"a..b","values":[1]},{"name":"tenants.x","range":{"from":0,"to":0,"step":-1}}]}`,
	} {
		f.Add([]byte(seed))
	}
	const guard = 16
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJSON[campaignSpec](bytes.NewReader(body))
		if err != nil {
			return
		}
		cells, err := expand(spec, guard)
		if err != nil {
			return
		}
		if len(cells) > guard {
			t.Fatalf("%d cells past a %d-cell guard", len(cells), guard)
		}
		for _, c := range cells {
			if err := c.Spec.Validate(); err != nil {
				t.Fatalf("cell %d does not validate: %v", c.Index, err)
			}
		}
	})
}
