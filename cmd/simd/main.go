// Command simd serves the simulator as an HTTP service: submit
// simulation jobs (any registered device profile driven by any named
// workload generator), watch their telemetry stream live, sweep whole
// parameter grids as campaigns, and rerun any of the paper's
// experiments remotely. One simsvc.Manager serves all of it. Identical
// jobs are served from a content-addressed result cache — sound because
// every simulation is deterministic from its spec — and identical
// concurrent requests collapse onto one in-flight simulation. A submit
// past a full backlog is shed with HTTP 429 and counted as jobs_shed in
// /statsz; -max-cells is the one guard on a campaign's grid size.
//
//	simd -addr :8080 -workers 4 -cache 4096
//	curl -s localhost:8080/profiles
//	curl -s -X POST -d '{"profile":"ssd","workload":"synthetic",
//	    "params":{"ops":100000,"capacity_bytes":8388608,"seed":1}}' localhost:8080/jobs
//	curl -s 'localhost:8080/jobs/job-1?wait=1'
//	curl -sN localhost:8080/jobs/job-1/stream
//	curl -s -X POST -d '{"template":{...},"axes":[{"name":"params.seed",
//	    "range":{"from":1,"to":10}}]}' localhost:8080/campaigns
//	curl -s 'localhost:8080/campaigns/campaign-1/table?rows=params.seed&cols=options.scheduler'
//	curl -s -X POST localhost:8080/experiments/table2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ossd/internal/simsvc"
)

// parseTenantQuotas turns "-tenant-quota 7=2,9=1" into the manager's
// quota map. Tenant 0 is the untenanted class and cannot be capped.
func parseTenantQuotas(s string) (map[uint8]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[uint8]int{}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		var tenant, max int
		if _, err := fmt.Sscanf(pair, "%d=%d", &tenant, &max); err != nil {
			return nil, fmt.Errorf("-tenant-quota: %q is not tenant=max", pair)
		}
		if tenant < 1 || tenant > 255 {
			return nil, fmt.Errorf("-tenant-quota: tenant %d outside 1-255", tenant)
		}
		if max < 1 {
			return nil, fmt.Errorf("-tenant-quota: cap %d for tenant %d must be >= 1", max, tenant)
		}
		out[uint8(tenant)] = max
	}
	return out, nil
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		backlog  = flag.Int("backlog", 0, "queued-job bound; submits past it are shed with HTTP 429 (0 = 256)")
		cacheN   = flag.Int("cache", 0, "result-cache entries (0 = 1024)")
		sample   = flag.Int("sample", 0, "telemetry sample cadence in ops (0 = 1000)")
		maxCells = flag.Int("max-cells", 0, "campaign expansion guard in cells (0 = 4096)")
		quotas   = flag.String("tenant-quota", "", "per-tenant in-flight job caps as tenant=max pairs, e.g. 7=2,9=1 (unlisted tenants are uncapped)")
	)
	flag.Parse()

	tenantQuotas, err := parseTenantQuotas(*quotas)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(2)
	}

	mgr := simsvc.New(simsvc.Options{
		Workers:      *workers,
		Backlog:      *backlog,
		CacheEntries: *cacheN,
		SampleEvery:  *sample,
		MaxCells:     *maxCells,
		TenantQuotas: tenantQuotas,
	})
	// Header and keep-alive idle timeouts bound slow or abandoned
	// connections. There is no whole-request read or write timeout:
	// ?wait=1 and /stream responses legitimately stay open for a job's
	// lifetime.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mgr.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "simd: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful shutdown: cancel campaigns and in-flight jobs first so
	// handlers blocked on ?wait=1 or /stream complete with responses,
	// then stop accepting requests and drain the pool.
	fmt.Fprintln(os.Stderr, "simd: shutting down")
	mgr.CancelAll()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "simd:", err)
	}
	mgr.Close()
}
