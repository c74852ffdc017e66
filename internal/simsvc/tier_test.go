package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ossd/internal/fault"
)

// fleetNode is one peered manager with its HTTP server — the in-test
// equivalent of one simd process. The servers listen on real TCP ports
// (allocated before the managers exist, because every manager's ring
// needs every member's final URL), so peer fetches travel the same
// HTTP path production does.
type fleetNode struct {
	mgr *Manager
	srv *httptest.Server
	url string
}

// startFleet brings up n mutually peered nodes. optsFn may tune each
// node's Options (the Tier field is already populated).
func startFleet(t *testing.T, n int, optsFn func(i int, o *Options)) []*fleetNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		opts := Options{
			Workers: 2,
			Tier: &TierConfig{
				Self:            urls[i],
				Peers:           peers,
				FetchTimeout:    30 * time.Second,
				BreakerCooldown: 100 * time.Millisecond,
			},
		}
		if optsFn != nil {
			optsFn(i, &opts)
		}
		m := New(opts)
		srv := &httptest.Server{Listener: listeners[i], Config: &http.Server{Handler: m.Handler()}}
		srv.Start()
		nodes[i] = &fleetNode{mgr: m, srv: srv, url: urls[i]}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.mgr.CancelAll() // unblock any /cache wait=1 handlers first
			nd.srv.Close()
			nd.mgr.Close()
		}
	})
	return nodes
}

// ownerOf splits a fleet into (owner, others) for a spec's cache key.
func ownerOf(t *testing.T, nodes []*fleetNode, spec JobSpec) (*fleetNode, []*fleetNode) {
	t.Helper()
	owner := nodes[0].mgr.tier.ring.Owner(spec.Key())
	var own *fleetNode
	var rest []*fleetNode
	for _, nd := range nodes {
		if nd.url == owner {
			own = nd
		} else {
			rest = append(rest, nd)
		}
	}
	if own == nil {
		t.Fatalf("no node owns %q", owner)
	}
	return own, rest
}

// waitRunning polls until the job's worker has actually picked it up,
// closing submit-vs-dispatch races in tests that need a job in flight.
func waitRunning(t *testing.T, job *Job) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		switch job.View().Status {
		case StatusRunning:
			return
		case StatusDone, StatusFailed:
			t.Fatalf("job settled as %s before it could be raced", job.View().Status)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("job never started running")
}

// fleetRuns totals completed simulations (not cached completions)
// across the fleet.
func fleetRuns(nodes []*fleetNode) uint64 {
	var runs uint64
	for _, nd := range nodes {
		runs += nd.mgr.Stats().Run.N
	}
	return runs
}

// TestFleetSingleFlight is the tentpole acceptance test: one identical
// spec submitted concurrently to two peered instances simulates exactly
// once fleet-wide, both responses are byte-identical, and the counters
// (runs, peer hits, coalesced waiters) pin where the work happened.
func TestFleetSingleFlight(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	spec := smallSpec(500_000, 42)
	owner, others := ownerOf(t, nodes, spec)
	nonOwner := others[0]

	// Submit on the owner and wait until its simulation is genuinely in
	// flight, then submit the identical spec on the non-owner: its
	// worker's ?wait=1 fetch must coalesce onto the owner's run rather
	// than start a second simulation anywhere.
	ownerJob, err := owner.mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, ownerJob)
	peerJob, err := nonOwner.mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	var views [2]JobView
	var wg sync.WaitGroup
	for i, job := range []*Job{ownerJob, peerJob} {
		wg.Add(1)
		go func(i int, job *Job) {
			defer wg.Done()
			views[i], _ = job.Wait(context.Background())
		}(i, job)
	}
	wg.Wait()
	for i := range views {
		if views[i].Status != StatusDone {
			t.Fatalf("job %d: status %s (error %q)", i, views[i].Status, views[i].Error)
		}
	}
	if len(views[0].Result) == 0 || !bytes.Equal(views[0].Result, views[1].Result) {
		t.Fatalf("payloads differ across nodes: %d vs %d bytes", len(views[0].Result), len(views[1].Result))
	}

	// Exactly one simulation fleet-wide, and it ran on the key's owner:
	// the non-owner's worker fetched with ?wait=1, and on the owner that
	// fetch's recompute attempt coalesced onto the in-flight run.
	if got := fleetRuns(nodes); got != 1 {
		t.Fatalf("fleet ran %d simulations, want exactly 1", got)
	}
	if got := owner.mgr.Stats().Run.N; got != 1 {
		t.Fatalf("owner ran %d simulations, want 1", got)
	}
	if got := owner.mgr.Stats().Coalesced; got != 1 {
		t.Fatalf("owner coalesced %d waiters, want 1", got)
	}
	st := nonOwner.mgr.Stats()
	if st.Tier == nil || st.Tier.PeerHits != 1 {
		t.Fatalf("non-owner tier stats %+v, want 1 peer hit", st.Tier)
	}
	if ost := owner.mgr.Stats(); ost.Tier == nil || ost.Tier.PeerServes != 1 {
		t.Fatalf("owner tier stats %+v, want 1 peer serve", ost.Tier)
	}
}

// TestFleetRemoteHit pins the steady-state shape: once any node has
// computed a spec, submitting it anywhere in the fleet is a cached
// completion with the byte-identical payload — no second simulation.
func TestFleetRemoteHit(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	spec := smallSpec(20_000, 7)

	first, err := nodes[0].mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := first.Wait(context.Background())
	if err != nil || v1.Status != StatusDone {
		t.Fatalf("first submit: %v %+v", err, v1)
	}
	if got := fleetRuns(nodes); got != 1 {
		t.Fatalf("fleet ran %d simulations after first submit, want 1", got)
	}

	second, err := nodes[1].mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := second.Wait(context.Background())
	if err != nil || v2.Status != StatusDone {
		t.Fatalf("second submit: %v %+v", err, v2)
	}
	if !v2.Cached {
		t.Fatalf("second submit was not served from the tier: %+v", v2)
	}
	if v2.CacheSource != "local" && v2.CacheSource != "peer" {
		t.Fatalf("cache source %q, want local or peer", v2.CacheSource)
	}
	if !bytes.Equal(v1.Result, v2.Result) {
		t.Fatal("payloads differ between nodes")
	}
	if got := fleetRuns(nodes); got != 1 {
		t.Fatalf("fleet ran %d simulations after both submits, want 1", got)
	}
}

// TestFleetEvictionRecompute pins the satellite: an owner that evicted
// an entry recomputes it for a ?wait=1 fetch instead of 404-looping,
// and the recomputed payload is byte-identical to the evicted one.
func TestFleetEvictionRecompute(t *testing.T) {
	nodes := startFleet(t, 2, func(i int, o *Options) { o.CacheEntries = 1 })
	spec := smallSpec(20_000, 3)
	owner, others := ownerOf(t, nodes, spec)
	nonOwner := others[0]

	// Compute spec on the owner, then push it out of the 1-entry cache
	// with a different spec. Both via SubmitLocal so neither consults
	// the tier.
	j1, err := owner.mgr.SubmitLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := j1.Wait(context.Background())
	if err != nil || v1.Status != StatusDone {
		t.Fatalf("owner compute: %v %+v", err, v1)
	}
	j2, err := owner.mgr.SubmitLocal(smallSpec(20_000, 4))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := j2.Wait(context.Background()); err != nil || v.Status != StatusDone {
		t.Fatalf("evictor compute: %v %+v", err, v)
	}
	if st := owner.mgr.Stats().Cache; st.Evicted != 1 || st.Entries != 1 {
		t.Fatalf("owner cache %+v, want the first entry evicted", st)
	}

	// The non-owner now asks for the evicted spec: the owner must
	// recompute on the wait=1 fetch, not 404 it into local compute.
	j3, err := nonOwner.mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := j3.Wait(context.Background())
	if err != nil || v3.Status != StatusDone {
		t.Fatalf("non-owner submit: %v %+v", err, v3)
	}
	if !v3.Cached || v3.CacheSource != "peer" {
		t.Fatalf("non-owner view %+v, want a peer-sourced cached completion", v3)
	}
	if !bytes.Equal(v1.Result, v3.Result) {
		t.Fatal("recomputed payload differs from the evicted one")
	}
	if got := nonOwner.mgr.Stats().Run.N; got != 0 {
		t.Fatalf("non-owner simulated %d times, want 0 (owner recomputes)", got)
	}
	if got := owner.mgr.Stats().Run.N; got != 3 {
		t.Fatalf("owner simulated %d times, want 3 (spec, evictor, recompute)", got)
	}
}

// TestFleetDeadPeerDegrades pins the failure semantics: with every peer
// dead, a submit for a peer-owned key degrades to local compute —
// never an error — and the breaker makes repeats cheap.
func TestFleetDeadPeerDegrades(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	spec := smallSpec(20_000, 11)
	owner, others := ownerOf(t, nodes, spec)
	nonOwner := others[0]

	// Kill the owner before anyone computed the spec.
	owner.mgr.CancelAll()
	owner.srv.Close()

	job, err := nonOwner.mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	view, err := job.Wait(context.Background())
	if err != nil || view.Status != StatusDone {
		t.Fatalf("submit with dead owner: %v %+v", err, view)
	}
	if view.Cached {
		t.Fatalf("view %+v, want a locally computed (non-cached) completion", view)
	}
	st := nonOwner.mgr.Stats()
	if st.Run.N != 1 {
		t.Fatalf("non-owner ran %d simulations, want 1 (local degrade)", st.Run.N)
	}
	if st.Tier.PeerErrors == 0 {
		t.Fatal("dead-owner fetch was not counted as a peer error")
	}

	// Repeats are local hits; after enough failures the breaker opens
	// and stops even probing the dead peer.
	for seed := int64(100); seed < 104; seed++ {
		j, err := nonOwner.mgr.Submit(smallSpec(5_000, seed))
		if err != nil {
			t.Fatal(err)
		}
		if v, err := j.Wait(context.Background()); err != nil || v.Status != StatusDone {
			t.Fatalf("seed %d with dead peer: %v %+v", seed, err, v)
		}
	}
}

// TestCacheEndpoint exercises the internal fleet API directly: exact
// payload for a verified identity, 409 on a key/identity mismatch, 404
// without wait, recompute with wait, and PUT push convergence.
func TestCacheEndpoint(t *testing.T) {
	m := New(Options{Workers: 2, Tier: &TierConfig{Self: "http://self:0"}})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	spec := smallSpec(20_000, 5)
	identity := spec.Canonical()
	key := spec.Key()
	job, err := m.SubmitLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	view, err := job.Wait(context.Background())
	if err != nil || view.Status != StatusDone {
		t.Fatalf("compute: %v %+v", err, view)
	}

	fetchCache := func(key uint64, identity []byte, wait string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/cache/%016x%s", srv.URL, key, wait), bytes.NewReader(identity))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// Verified hit: the exact payload bytes.
	resp, body := fetchCache(key, identity, "")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, []byte(view.Result)) {
		t.Fatalf("cache fetch: %d, %d bytes (want %d)", resp.StatusCode, len(body), len(view.Result))
	}
	// A key that does not hash the identity is refused, not served.
	if resp, _ := fetchCache(key+1, identity, ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched key: %d, want 409", resp.StatusCode)
	}
	// Unknown entry without wait: an honest 404.
	miss := smallSpec(20_000, 6)
	if resp, _ := fetchCache(miss.Key(), miss.Canonical(), ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing entry: %d, want 404", resp.StatusCode)
	}
	// With wait=1 the owner recomputes the spec instead of 404ing.
	runsBefore := m.Stats().Run.N
	resp, body = fetchCache(miss.Key(), miss.Canonical(), "?wait=1")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("recompute fetch: %d, %d bytes", resp.StatusCode, len(body))
	}
	if got := m.Stats().Run.N; got != runsBefore+1 {
		t.Fatalf("recompute ran %d simulations, want 1", got-runsBefore)
	}
	// And the recomputed entry now hits without wait.
	if resp, _ := fetchCache(miss.Key(), miss.Canonical(), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recompute fetch: %d, want 200", resp.StatusCode)
	}

	// PUT push: a non-owner's computed entry lands verified.
	pushed := smallSpec(20_000, 8)
	env := fmt.Sprintf(`{"identity":%s,"payload":{"fake":"payload"}}`, pushed.Canonical())
	req, _ := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/cache/%016x", srv.URL, pushed.Key()), bytes.NewReader([]byte(env)))
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusNoContent {
		t.Fatalf("push: %d, want 204", presp.StatusCode)
	}
	if resp, body := fetchCache(pushed.Key(), pushed.Canonical(), ""); resp.StatusCode != http.StatusOK || string(body) != `{"fake":"payload"}` {
		t.Fatalf("pushed entry fetch: %d %q", resp.StatusCode, body)
	}
	// A push whose identity does not hash to the key is refused.
	req, _ = http.NewRequest(http.MethodPut, fmt.Sprintf("%s/cache/%016x", srv.URL, pushed.Key()+1), bytes.NewReader([]byte(env)))
	presp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched push: %d, want 409", presp.StatusCode)
	}
}

// widest sets every number reachable from v to its longest JSON
// spelling and grows every slice to 256 such elements, one per possible
// tenant row, so the value marshals as large as a real one can.
func widest(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			widest(v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 256, 256))
		for i := 0; i < v.Len(); i++ {
			widest(v.Index(i))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-1 << (v.Type().Bits() - 1))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(math.MaxUint64 >> (64 - v.Type().Bits()))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(-math.MaxFloat64)
	}
}

// TestCachePushCap pins the PUT /cache/{key} body cap. The largest push
// a valid job can produce is stored: an identity at the submit cap, and
// a payload repeating that spec beside a snapshot and workload summary
// of 256 widest-value tenant rows. A body one byte over maxPushBytes
// answers 413 and stores nothing.
func TestCachePushCap(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	put := func(key uint64, body []byte) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/cache/%016x", srv.URL, key), bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Empty fault deaths canonicalize to 28 bytes each
	// (`,{"element":0,"after_ops":0}`): pad the identity up to the cap.
	spec := smallSpec(1000, 1)
	spec.Fault = &fault.Plan{Deaths: make([]fault.Death, 1)}
	spec.Fault.Deaths = make([]fault.Death, 1+(MaxBodyBytes-len(spec.Canonical()))/28)
	identity := spec.Canonical()
	if len(identity) > MaxBodyBytes || len(identity) <= MaxBodyBytes-28 || spec.Validate() != nil {
		t.Fatalf("padded identity is %d bytes (cap %d), valid: %v", len(identity), MaxBodyBytes, spec.Validate())
	}
	res := Result{Spec: spec}
	res.Spec.Tenant = math.MaxUint8 // outside the identity
	widest(reflect.ValueOf(&res.Snapshot).Elem())
	widest(reflect.ValueOf(&res.Workload).Elem())
	res.SimulatedSeconds, res.ReadMBps, res.WriteMBps = -math.MaxFloat64, -math.MaxFloat64, -math.MaxFloat64
	payload, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	largest, err := json.Marshal(pushEnvelope{Identity: identity, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if code := put(spec.Key(), largest); code != http.StatusNoContent {
		t.Fatalf("largest legitimate push (%d bytes): %d, want 204", len(largest), code)
	}
	if _, ok := m.cache.get(spec.Key(), identity); !ok {
		t.Fatal("largest legitimate push was not stored")
	}

	small := smallSpec(1000, 2)
	head := fmt.Sprintf(`{"identity":%s,"payload":"`, small.Canonical())
	over := head + strings.Repeat("x", maxPushBytes+1-len(head)-len(`"}`)) + `"}`
	if code := put(small.Key(), []byte(over)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("push of %d bytes: %d, want 413", len(over), code)
	}
	if _, ok := m.cache.get(small.Key(), small.Canonical()); ok {
		t.Fatal("over-cap push was stored")
	}
}

// TestSingleFlightCoalesce pins node-local single-flight: identical
// specs submitted while the primary is still queued collapse onto one
// simulation and settle as byte-identical cached completions.
func TestSingleFlightCoalesce(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Close()

	// One worker, occupied: the primary below cannot start (let alone
	// finish) until the blocker completes, so every duplicate submit
	// deterministically coalesces instead of racing a cache hit.
	blocker, err := m.Submit(smallSpec(200_000, 99))
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(30_000, 1)
	const dups = 8
	jobs := make([]*Job, 0, dups)
	for i := 0; i < dups; i++ {
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	var primaryPayload []byte
	for i, j := range jobs {
		v, err := j.Wait(context.Background())
		if err != nil || v.Status != StatusDone {
			t.Fatalf("dup %d: %v %+v", i, err, v)
		}
		if i == 0 {
			if v.Cached {
				t.Fatalf("primary reported cached: %+v", v)
			}
			primaryPayload = []byte(v.Result)
			continue
		}
		if !v.Cached || v.CacheSource != "coalesced" {
			t.Fatalf("dup %d not coalesced: cached=%v source=%q", i, v.Cached, v.CacheSource)
		}
		if !bytes.Equal(primaryPayload, []byte(v.Result)) {
			t.Fatalf("dup %d payload differs from primary", i)
		}
	}
	st := m.Stats()
	if st.Run.N != 2 { // blocker + primary
		t.Fatalf("ran %d simulations, want 2", st.Run.N)
	}
	if st.Coalesced != dups-1 {
		t.Fatalf("coalesced %d, want %d", st.Coalesced, dups-1)
	}
}

// TestShedMode pins the shed satellite: with Options.Shed, a full
// backlog rejects with a counted ErrShed (HTTP 429) instead of 503.
func TestShedMode(t *testing.T) {
	m := New(Options{Workers: 1, Backlog: 1, Shed: true})
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	// Occupy the worker and the single backlog slot with long distinct
	// specs; the third submit must shed. Distinct seeds so none
	// coalesce, and the first must be running (drained from the backlog
	// channel) before the second fills the only slot.
	first, err := m.Submit(smallSpec(300_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, first)
	second, err := m.Submit(smallSpec(300_000, 2))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*Job{first, second}
	body, _ := json.Marshal(smallSpec(300_000, 3))
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("saturated submit in shed mode: %d %s, want 429", resp.StatusCode, b)
	}
	if got := m.Stats().JobsShed; got != 1 {
		t.Fatalf("jobs_shed = %d, want 1", got)
	}
	for _, j := range jobs {
		if v, err := j.Wait(context.Background()); err != nil || v.Status != StatusDone {
			t.Fatalf("accepted job: %v %+v", err, v)
		}
	}
}
