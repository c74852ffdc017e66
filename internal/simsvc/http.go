package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"

	"ossd/internal/core"
	"ossd/internal/experiments"
	"ossd/internal/runner"
	"ossd/internal/workload"
)

// writeJSON serves v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// resultMember and viewTail frame the stored result in a view body:
// what a two-space-indented encoding of a JobView puts before and after
// its last member, "result".
var (
	resultMember = []byte(",\n  \"result\": ")
	viewTail     = []byte("\n}\n")
)

// writeView serves a job view (POST /jobs, GET /jobs/{id}). With v.Result
// the stored rendition (renderResult), the body is byte-identical to
// writeJSON(w, status, v), but the result is not re-encoded: the view is
// encoded without it, and the rendition, already at the indentation it
// sits at, is spliced in as the closing member.
func writeView(w http.ResponseWriter, status int, v JobView) {
	result := v.Result
	v.Result = nil
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if len(result) == 0 {
		body = append(body, '\n')
	} else {
		body = slices.Concat(body[:len(body)-len("\n}")], resultMember, result, viewTail)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeError serves an error as {"error": ...}.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxBodyBytes caps the JSON request body of every POST endpoint that
// submits work (jobs, experiments, campaigns).
const maxBodyBytes = 1 << 20

// decodeJSON reads one T, refusing fields T does not have: the one
// strict decode behind every body the service accepts, whether posted
// as a job, an experiment run or a campaign, or expanded from a
// campaign cell.
func decodeJSON[T any](r io.Reader) (T, error) {
	var v T
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	return v, err
}

// decodeBody strictly decodes a request body of at most maxBodyBytes
// into a T. On failure it has already answered, with 413 when the body
// overran the cap and 400 otherwise, the error prefixed by what.
func decodeBody[T any](w http.ResponseWriter, r *http.Request, what string) (T, bool) {
	v, err := decodeJSON[T](http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("%s: %w", what, err))
		return v, false
	}
	return v, true
}

// streamHandler serves a GET …/{id}/stream route from stream, which
// delivers the handle's items in order (Manager.StreamSamples,
// campaignManager.streamResults). Each item goes out as one flushed
// NDJSON line. Nothing is streamed yet iff the ID was unknown, so only
// that lookup error can still become a 404. A stream that ends on the
// handle's eviction (the evicted sentinel) or a departed client just
// closes the body: items may already be on the wire, and the
// terminated connection is the signal.
func streamHandler[T any](stream func(ctx context.Context, id string, fn func(T) error) error, evicted error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		err := stream(r.Context(), r.PathValue("id"), func(item T) error {
			if err := enc.Encode(item); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
		if err != nil && r.Context().Err() == nil && !errors.Is(err, evicted) {
			writeError(w, http.StatusNotFound, err)
		}
	}
}

// submitStatus maps a Submit error to its HTTP status: 429 for an
// explicit rejection (a full backlog, a tenant over quota), since a
// clear "go away" beats queueing the caller behind the overload; 503
// for a closed pool; 400 for a spec that failed validation.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrShed), errors.Is(err, ErrTenantQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, runner.ErrPoolClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// profileInfo is one GET /profiles row.
type profileInfo struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"`
	Description string `json:"description"`
}

// experimentInfo is one GET /experiments row.
type experimentInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// experimentRequest is the optional POST /experiments/{name} body. Seed
// is a pointer so an explicit {"seed": 0} is distinguishable from an
// omitted field (which defaults to 1).
type experimentRequest struct {
	Seed    *int64 `json:"seed,omitempty"`
	Workers int    `json:"workers,omitempty"`
}

// expIdentity is the experiment result cache's identity bytes (hash it
// with identityKey for the cache key). Workers is deliberately
// excluded: experiment results are byte-identical for a fixed seed
// regardless of worker count (the determinism tests pin this), so it
// is not part of the result's identity.
func expIdentity(name string, seed int64) []byte {
	return fmt.Appendf(nil, "experiment|%s|%d", name, seed)
}

// Handler returns the service's HTTP API:
//
//	POST   /jobs                     submit a JobSpec, get {id, status, cached}
//	GET    /jobs/{id}                job state (+ ?wait=1 to block until terminal)
//	DELETE /jobs/{id}                cancel a queued or running job
//	GET    /jobs/{id}/stream         NDJSON telemetry samples until the job ends
//	POST   /campaigns                submit a campaign spec, get its progress view
//	GET    /campaigns                progress of every retained campaign
//	GET    /campaigns/{id}           progress (+ ?wait=1 to block until terminal)
//	DELETE /campaigns/{id}           cancel the remaining cells
//	GET    /campaigns/{id}/stream    NDJSON cell results in deterministic cell order
//	GET    /campaigns/{id}/table     text comparison table (?rows=&cols=&metric=)
//	GET    /profiles                 registered device profiles
//	GET    /workloads                registered workload generators
//	GET    /experiments              the paper's experiment catalog
//	POST   /experiments/{name}       run one experiment (body: {seed, workers})
//	GET    /healthz                  liveness
//	GET    /statsz                   job, cache, campaign and tenant counters
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		spec, ok := decodeBody[JobSpec](w, r, "simsvc: bad job spec")
		if !ok {
			return
		}
		job, err := m.Submit(spec)
		if err != nil {
			writeError(w, submitStatus(err), err)
			return
		}
		writeView(w, http.StatusAccepted, job.View())
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if r.URL.Query().Get("wait") != "" {
			view, err := m.Wait(r.Context(), id)
			if err != nil {
				writeError(w, http.StatusNotFound, err)
				return
			}
			writeView(w, http.StatusOK, view)
			return
		}
		job, ok := m.Job(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("simsvc: no job %q", id))
			return
		}
		writeView(w, http.StatusOK, job.View())
	})

	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		cancelled, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"cancelled": cancelled})
	})

	mux.HandleFunc("GET /jobs/{id}/stream", streamHandler(m.StreamSamples, ErrJobEvicted))

	camps := m.campaigns
	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		spec, ok := decodeBody[campaignSpec](w, r, "campaign: bad spec")
		if !ok {
			return
		}
		c, err := camps.submit(spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, camps.progress(c))
	})

	mux.HandleFunc("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		all := camps.table.all()
		views := make([]CampaignProgress, 0, len(all))
		for _, c := range all {
			views = append(views, camps.progress(c))
		}
		writeJSON(w, http.StatusOK, views)
	})

	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if r.URL.Query().Get("wait") != "" {
			p, err := camps.wait(r.Context(), id)
			if err != nil {
				writeError(w, http.StatusNotFound, err)
				return
			}
			writeJSON(w, http.StatusOK, p)
			return
		}
		c, ok := camps.get(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("campaign: no campaign %q", id))
			return
		}
		writeJSON(w, http.StatusOK, camps.progress(c))
	})

	mux.HandleFunc("DELETE /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		cancelled, err := camps.cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"cancelled": cancelled})
	})

	mux.HandleFunc("GET /campaigns/{id}/stream", streamHandler(camps.streamResults, errCampaignEvicted))

	mux.HandleFunc("GET /campaigns/{id}/table", func(w http.ResponseWriter, r *http.Request) {
		c, ok := camps.get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("campaign: no campaign %q", r.PathValue("id")))
			return
		}
		q := r.URL.Query()
		rows, cols, metric, err := resolveTableAxes(c.axes, q.Get("rows"), q.Get("cols"), q.Get("metric"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		title := fmt.Sprintf("Campaign %s: %s by %s x %s", c.ID, metric, rows, cols)
		g, err := campaignTable(title, c.results(), rows, cols, metric)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(g.String()))
	})

	mux.HandleFunc("GET /profiles", func(w http.ResponseWriter, r *http.Request) {
		var infos []profileInfo
		for _, name := range core.ProfileNames() {
			p, err := core.ProfileByName(name)
			if err != nil {
				continue // racing an unregister is impossible; be safe anyway
			}
			infos = append(infos, profileInfo{Name: p.Name, Kind: p.Kind.String(), Description: p.Description})
		}
		writeJSON(w, http.StatusOK, infos)
	})

	mux.HandleFunc("GET /workloads", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, workload.Generators())
	})

	mux.HandleFunc("GET /experiments", func(w http.ResponseWriter, r *http.Request) {
		var infos []experimentInfo
		for _, e := range experiments.Catalog() {
			infos = append(infos, experimentInfo{Name: e.ID, Description: e.Description})
		}
		writeJSON(w, http.StatusOK, infos)
	})

	mux.HandleFunc("POST /experiments/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		entry, ok := experiments.CatalogEntryByID(name)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("simsvc: unknown experiment %q", name))
			return
		}
		var req experimentRequest
		if r.ContentLength != 0 {
			if req, ok = decodeBody[experimentRequest](w, r, "simsvc: bad experiment request"); !ok {
				return
			}
		}
		seed := int64(1)
		if req.Seed != nil {
			seed = *req.Seed
		}

		// Experiment runs are deterministic from (name, seed), so they
		// share the content-addressed cache with jobs.
		identity := expIdentity(entry.ID, seed)
		key := identityKey(identity)
		if payload, ok := m.cache.get(key, identity); ok {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(payload)
			return
		}

		// Experiments fan out internally and run for seconds; bound
		// their concurrency and shed the overflow instead of stacking
		// unmanaged runs on handler goroutines.
		select {
		case m.expSem <- struct{}{}:
			defer func() { <-m.expSem }()
		default:
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("simsvc: an experiment is already running; retry later"))
			return
		}

		res := ExperimentResult{Name: entry.ID, Description: entry.Description, Seed: seed}
		value, err := entry.Run(seed, req.Workers)
		if err != nil {
			res.Error = err.Error()
			writeJSON(w, http.StatusInternalServerError, res)
			return
		}
		res.Report = value.String()
		payload, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		payload = append(payload, '\n')
		m.cache.put(key, identity, payload)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(payload)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Stats())
	})

	return mux
}
