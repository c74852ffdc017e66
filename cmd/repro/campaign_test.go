package main

import (
	"bytes"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ossd/internal/simsvc"
)

// serverBody GETs url from the test server and returns its body.
func serverBody(t *testing.T, url string) []byte {
	t.Helper()
	r, err := get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunCampaignPrintsServerBodies: -campaign prints exactly what the
// server serves — the /table body in table mode, the /stream body with
// -json — instead of rendering its own.
func TestRunCampaignPrintsServerBodies(t *testing.T) {
	mgr := simsvc.New(simsvc.Options{Workers: 2})
	defer mgr.Close()
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()

	spec := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(spec, []byte(`{"template":{"profile":"ssd","workload":"synthetic",`+
		`"params":{"ops":2000,"capacity_bytes":4194304,"read_frac":0.5,"mean_interarrival_us":50,"seed":1}},`+
		`"axes":[{"name":"params.seed","values":[1,2]},{"name":"options.scheduler","values":["fcfs","swtf"]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f := campaignFlags{specPath: spec, addr: srv.URL, cols: "options.scheduler", metric: "read_mbps"}

	var table bytes.Buffer
	if failed, err := runCampaign(&table, f); err != nil || failed {
		t.Fatalf("table mode: failed=%v err=%v", failed, err)
	}
	want := serverBody(t, srv.URL+"/campaigns/campaign-1/table?cols=options.scheduler&metric=read_mbps")
	if !bytes.Equal(table.Bytes(), want) {
		t.Fatalf("table output differs from /table:\ngot:\n%s\nwant:\n%s", table.Bytes(), want)
	}
	if !strings.Contains(table.String(), "read_mbps by params.seed x options.scheduler") {
		t.Fatalf("table ignored the axis and metric flags:\n%s", table.Bytes())
	}

	f.asJSON = true
	var stream bytes.Buffer
	if failed, err := runCampaign(&stream, f); err != nil || failed {
		t.Fatalf("-json mode: failed=%v err=%v", failed, err)
	}
	want = serverBody(t, srv.URL+"/campaigns/campaign-2/stream")
	if !bytes.Equal(stream.Bytes(), want) {
		t.Fatalf("-json output differs from /stream:\ngot:\n%s\nwant:\n%s", stream.Bytes(), want)
	}
	if n := bytes.Count(stream.Bytes(), []byte("\n")); n != 4 {
		t.Fatalf("-json printed %d lines, want 4 cells", n)
	}
}

// TestLoadFaultRejectsPowerLoss: repro -fault refuses a plan with a
// power-loss point instead of running the experiments as if it were
// absent, and loads a plan without one.
func TestLoadFaultRejectsPowerLoss(t *testing.T) {
	dir := t.TempDir()
	write := func(name, plan string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	_, err := loadFault(write("pl.json", `{"transient":{"rate":0.01},"power_loss":{"at_ops":500,"replay_frac":0.5}}`))
	if err == nil || !strings.Contains(err.Error(), "cannot truncate") ||
		!strings.Contains(err.Error(), "simd") || !strings.Contains(err.Error(), "ssdsim") {
		t.Fatalf("power-loss plan: err = %v, want a refusal pointing to simd and ssdsim", err)
	}
	plan, err := loadFault(write("ok.json", `{"transient":{"rate":0.01}}`))
	if err != nil || plan == nil || plan.Transient == nil {
		t.Fatalf("plan without power loss: %+v, %v", plan, err)
	}
}
