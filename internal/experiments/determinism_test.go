package experiments

import (
	"reflect"
	"testing"
)

// The runner must never let worker count leak into results: every spec
// is an isolated simulation and assembly is ordered by spec. These tests
// pin that property on real experiments, comparing a serial run against
// a heavily oversubscribed one.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	t.Run("table2", func(t *testing.T) {
		t.Parallel()
		serial, err := Table2(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := Table2(5, 16)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("worker count changed the result:\n%+v\n%+v", serial, parallel)
		}
	})
	t.Run("swtf", func(t *testing.T) {
		t.Parallel()
		serial, err := SWTF(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := SWTF(5, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("worker count changed the result:\n%+v\n%+v", serial, parallel)
		}
	})
	t.Run("table5", func(t *testing.T) {
		t.Parallel()
		serial, err := Table5(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := Table5(5, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("worker count changed the result:\n%+v\n%+v", serial, parallel)
		}
	})
}
