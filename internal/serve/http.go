package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// The HTTP surface. All request and response bodies are JSON; errors
// come back as {"error": "..."} with a 4xx/5xx status. Routes (Go 1.22
// method patterns):
//
//	POST /api/v1/jobs            submit (sync unless "async": true)
//	GET  /api/v1/jobs/{id}       job status (?wait=1 blocks until done)
//	POST /api/v1/jobs/{id}/cancel
//	                             both: 410 once the finished job has been
//	                             evicted (see retainTerminal), 404 for an
//	                             id never issued
//	GET  /api/v1/stats           pool, cache, jobs, allocation decisions
//	GET  /healthz                liveness
//
// The handlers are a thin shim over Server's methods: everything they
// do is equally reachable in-process, which is how the package's tests
// drive them (httptest against Handler()).

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxRequestBytes bounds a submission's body. The largest program or
// graph in the repository is about 1.3 KiB, so 1 MiB refuses only
// bodies no real job needs before they are read into memory.
const maxRequestBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("bad request body: %w", err))
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := j.Status()
	if req.Async {
		// Submitted but probably not finished: report the snapshot.
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	writeJSON(w, statusCode(st.State), st)
}

// statusCode maps a terminal job state to its HTTP status: failures
// are 500s, cancellations 499 (the de-facto client-closed-request
// code), anything else 200.
func statusCode(state string) int {
	switch state {
	case StateFailed:
		return http.StatusInternalServerError
	case StateCanceled:
		return 499
	default:
		return http.StatusOK
	}
}

// findJob resolves the request's {id}, answering the misses itself:
// 410 Gone for a job the registry has evicted, 404 for an id never
// issued.
func (s *Server) findJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, evicted := s.lookup(r.PathValue("id"))
	switch {
	case j != nil:
		return j, true
	case evicted:
		writeError(w, http.StatusGone, fmt.Errorf("job finished more than %d completions ago; its record was evicted", retainTerminal))
	default:
		writeError(w, http.StatusNotFound, errors.New("no such job"))
	}
	return nil, false
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.findJob(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			writeError(w, 499, r.Context().Err())
			return
		}
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.findJob(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
