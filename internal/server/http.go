package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"matscale/internal/sweep"
)

// SubmitRequest is the POST /v1/jobs body. Jobs run on the server's
// Config.Backend; any field besides spec is rejected as bad_request.
type SubmitRequest struct {
	Spec sweep.Spec `json:"spec"`
}

// SubmitResponse acknowledges an admitted job.
type SubmitResponse struct {
	ID    string `json:"id"`
	Cells int    `json:"cells"`
	State string `json:"state"`
}

// maxSubmitBytes bounds a submit body; a larger one is rejected as
// bad_request before it is decoded.
const maxSubmitBytes = 1 << 20

// apiError is the JSON error body: a human message plus a
// machine-readable kind matching the typed rejection.
type apiError struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// kindError is an HTTP-layer rejection that is not a server method's
// typed error, classified by its ErrorKind for writeError.
type kindError struct {
	kind ErrorKind
	msg  string
}

func (e kindError) Error() string   { return e.msg }
func (e kindError) Kind() ErrorKind { return e.kind }

// Handler returns the server's HTTP API. Jobs are a uniform resource
// with POST verb endpoints for lifecycle control:
//
//	POST /v1/jobs                submit a SweepSpec; 202 + job ID
//	GET  /v1/jobs/{id}           job status snapshot
//	GET  /v1/jobs/{id}/result    completed sweep as JSON (byte-identical
//	                             for cache hits and misses, and for
//	                             resumed and uninterrupted runs)
//	GET  /v1/jobs/{id}/events    SSE stream of state/progress events
//	POST /v1/jobs/{id}/suspend   stop at the next cell boundary with a
//	                             resumable checkpoint; 200 + status
//	POST /v1/jobs/{id}/resume    re-enqueue a suspended job; 200 + status
//	POST /v1/jobs/{id}/cancel    terminate the job; 200 + status
//	GET  /v1/stats               admission, execution and cache counters
//	GET  /v1/healthz             liveness probe
//
// Every error body is {"error", "kind"} with kind an ErrorKind token
// and the status its HTTPStatus. See docs/SERVER.md for the full
// protocol and the job state machine.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/jobs/{id}/suspend", s.handleVerb(s.Suspend))
	mux.HandleFunc("POST /v1/jobs/{id}/resume", s.handleVerb(s.Resume))
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleVerb(s.Cancel))
	return mux
}

// handleVerb adapts one job-control method into its POST endpoint: on
// success the response is the job's post-transition status snapshot
// (for an asynchronous transition — suspending or cancelling a running
// job — the snapshot may still show the old state; subscribe to
// events or poll for the landing).
func (s *Server) handleVerb(apply func(id string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := apply(id); err != nil {
			writeError(w, err)
			return
		}
		j, ok := s.Job(id)
		if !ok { // evicted between the verb and the snapshot
			writeError(w, &UnknownJobError{ID: id})
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, kindError{KindBadRequest, "malformed request body: " + err.Error()})
		return
	}
	j, err := s.Submit(&req.Spec, -1)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: j.ID(), Cells: j.Total(), State: j.Status().State})
}

// writeError maps any typed server error onto its kind's status code
// and wire token, attaching Retry-After where a retry can succeed.
func writeError(w http.ResponseWriter, err error) {
	k := KindOf(err)
	var rl *RateLimitedError
	switch {
	case errors.As(err, &rl):
		w.Header().Set("Retry-After", strconv.Itoa(int(rl.RetryAfter.Seconds())+1))
	case k == KindQueueFull, k == KindNotDone:
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, k.HTTPStatus(), apiError{Error: err.Error(), Kind: k.String()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, &UnknownJobError{ID: r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, &UnknownJobError{ID: r.PathValue("id")})
		return
	}
	switch st := j.State(); {
	case st == StateDone:
		res, _ := j.Result()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		// WriteJSON emission is deterministic for a fixed spec, and
		// cached cells reproduce the miss path's values exactly, so
		// these bytes are identical whether the job hit or missed.
		if err := res.WriteJSON(w); err != nil {
			return // client went away mid-body
		}
	case st == StateSuspended:
		writeError(w, kindError{KindSuspended, "job suspended; resume it to continue"})
	case st.Terminal(): // failed or cancelled: surface the typed job error
		_, jerr := j.Result()
		writeError(w, jerr)
	default:
		writeError(w, kindError{KindNotDone, "job not finished: " + st.String()})
	}
}

// handleEvents streams a job's lifecycle as Server-Sent Events: an
// initial "state" snapshot, one "progress" event per completed cell
// (best-effort: a slow client may miss some), and a terminal "done" or
// "error" event, after which the stream closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, &UnknownJobError{ID: r.PathValue("id")})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, kindError{KindInternal, "streaming unsupported by connection"})
		return
	}
	events, cancel := j.Subscribe()
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	snap := j.Status()
	writeSSE(w, Event{Type: "state", State: snap.State, Done: snap.Done, Total: snap.Total})
	fl.Flush()

	for {
		select {
		case ev, open := <-events:
			if !open {
				writeSSE(w, terminalEvent(j.Status()))
				fl.Flush()
				return
			}
			writeSSE(w, ev)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// terminalEvent renders a finished job's closing SSE frame.
func terminalEvent(st Status) Event {
	if st.State == StateFailed.String() {
		return Event{Type: "error", State: st.State, Done: st.Done, Total: st.Total, Error: st.Error}
	}
	return Event{Type: "done", State: st.State, Done: st.Done, Total: st.Total}
}

// writeSSE emits one `event:`/`data:` frame; the data is the Event as
// JSON.
func writeSSE(w http.ResponseWriter, ev Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return // Event marshaling cannot fail; keep the stream alive
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
}

// writeJSON emits a JSON response body with the given status.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return // client went away mid-body
	}
}
