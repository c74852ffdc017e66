package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// referenceView is the encoding writeView must match byte for byte: the
// whole view through one indenting json.Encoder, its result compacted
// as json.Marshal writes it.
func referenceView(t testing.TB, v JobView) []byte {
	t.Helper()
	if len(v.Result) > 0 {
		var compact bytes.Buffer
		if err := json.Compact(&compact, v.Result); err != nil {
			t.Fatal(err)
		}
		v.Result = compact.Bytes()
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkView asserts writeView serves v byte-identically to referenceView.
func checkView(t *testing.T, what string, v JobView) {
	t.Helper()
	rec := httptest.NewRecorder()
	writeView(rec, http.StatusOK, v)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: Content-Type %q", what, ct)
	}
	if want := referenceView(t, v); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("%s: view body differs from the encoder's\ngot:\n%s\nwant:\n%s", what, rec.Body.Bytes(), want)
	}
}

// storedResult returns the job's stored rendition.
func storedResult(j *Job) []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

func waitView(t *testing.T, j *Job) JobView {
	t.Helper()
	v, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestJobViewByteIdentity pins that splicing the stored result into a
// view leaves every job view's bytes as an indenting json.Encoder
// writes them: done cold jobs on all five device kinds, a local cache
// hit, a coalesced waiter, a queued job and a failed job whose error
// needs HTML escaping. The rendition is stored exact-size and shared
// by the cache, the primary, its waiters and later hits.
func TestJobViewByteIdentity(t *testing.T) {
	m := New(Options{Workers: 1})
	defer m.Close()

	// One worker, occupied: the primary below stays queued, and its
	// duplicate deterministically coalesces onto it.
	blocker, err := m.Submit(smallSpec(5_000_000, 99))
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(3_000, 1)
	primary, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	queued := primary.View()
	if queued.Status != StatusQueued {
		t.Fatalf("primary is %s behind a busy worker, want queued", queued.Status)
	}
	checkView(t, "queued", queued)

	doomed, err := m.Submit(smallSpec(3_000, 2))
	if err != nil {
		t.Fatal(err)
	}
	m.failJob(doomed, `device <ssd> & "spare" pool exhausted`)
	failed := doomed.View()
	if failed.Status != StatusFailed {
		t.Fatalf("doomed job is %s, want failed", failed.Status)
	}
	checkView(t, "failed", failed)

	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	done := waitView(t, primary)
	if done.Status != StatusDone || done.Cached {
		t.Fatalf("primary: %+v", done)
	}
	checkView(t, "primary", done)
	coalesced := waitView(t, dup)
	if coalesced.CacheSource != "coalesced" {
		t.Fatalf("duplicate settled as %q, want coalesced", coalesced.CacheSource)
	}
	checkView(t, "coalesced", coalesced)
	hit, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	local := waitView(t, hit)
	if local.CacheSource != "local" {
		t.Fatalf("resubmit settled as %q, want local", local.CacheSource)
	}
	checkView(t, "local", local)

	stored := storedResult(primary)
	if len(stored) != cap(stored) {
		t.Fatalf("stored rendition has len %d, cap %d; want exact-size", len(stored), cap(stored))
	}
	cached, ok := m.cache.get(primary.key, primary.identity)
	if !ok {
		t.Fatal("completed result missing from the cache")
	}
	for what, b := range map[string][]byte{"cache": cached, "coalesced": storedResult(dup), "local": storedResult(hit)} {
		if &b[0] != &stored[0] || len(b) != len(stored) {
			t.Fatalf("%s result is not the primary's stored rendition", what)
		}
	}

	for _, profile := range []string{"ssd", "hdd", "mems", "raid", "osd"} {
		s := smallSpec(500, 7)
		s.Profile = profile
		j, err := m.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		v := waitView(t, j)
		if v.Status != StatusDone || v.Cached {
			t.Fatalf("%s cold job: %+v", profile, v)
		}
		checkView(t, profile, v)
		if r := storedResult(j); len(r) != cap(r) {
			t.Fatalf("%s: stored rendition has len %d, cap %d", profile, len(r), cap(r))
		}
	}
}

// discardResponse is an http.ResponseWriter that keeps nothing.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header         { return d.h }
func (d discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d discardResponse) WriteHeader(int)             {}

// BenchmarkJobView is the job-view stage of every POST /jobs and
// GET /jobs/{id}: one done view with a ~1.2 KB (compact) result,
// rendered into a response that discards it.
func BenchmarkJobView(b *testing.B) {
	m := New(Options{Workers: 1})
	defer m.Close()
	j, err := m.Submit(smallSpec(2_000, 1))
	if err != nil {
		b.Fatal(err)
	}
	v, err := j.Wait(context.Background())
	if err != nil || v.Status != StatusDone {
		b.Fatalf("job: %v %+v", err, v)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, v.Result); err != nil {
		b.Fatal(err)
	}
	if n := compact.Len(); n < 1000 || n > 1500 {
		b.Fatalf("compact result is %d bytes, want ~1.2 KB", n)
	}
	w := discardResponse{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeView(w, http.StatusOK, v)
	}
}
