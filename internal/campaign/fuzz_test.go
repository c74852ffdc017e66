package campaign

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzExpand feeds POST /campaigns bodies to Expand under a small
// guard. A hostile spec gets an error, never a panic; an accepted one
// never yields more cells than the guard, and every cell is a spec the
// job manager would accept.
func FuzzExpand(f *testing.F) {
	for _, seed := range []string{
		`{"template":{"profile":"ssd","workload":"synthetic","params":{"ops":100,"capacity_bytes":4194304}},"axes":[{"name":"params.seed","range":{"from":1,"to":3}},{"name":"tenant","values":[1,2]}]}`,
		`{"template":{"profile":"ssd","workload":"synthetic","tenants":[{"tenant":1},{"tenant":2}]},"axes":[{"name":"tenants.1.weight","values":[1,4]},{"name":"fault.transient.rate","values":[0,0.5]}]}`,
		`{"template":{"profile":"ssd","workload":"synthetic"},"max_cells":2,"axes":[{"name":"options.scheduler","values":["fcfs","swtf","bogus"]}]}`,
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
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		cells, err := Expand(spec, guard)
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
