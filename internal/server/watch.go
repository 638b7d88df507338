package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	approxsel "repro"
)

// This file is the serving face of approxwatch: POST /v1/watch registers a
// standing query over a served corpus and delivers its epoch-tagged
// match/unmatch events, either as a server-sent-event stream (mode "sse",
// the default) or as one long-poll page (mode "poll"). Both modes resume:
// the client passes the epoch vector it last saw and the missed window
// replays — from the WAL's replay window across a restart — before live
// events continue, each missed event exactly once.

// WatchRequest registers a standing query on a corpus.
type WatchRequest struct {
	Corpus    string  `json:"corpus,omitempty"`
	Predicate string  `json:"predicate"`
	Theta     float64 `json:"theta"`
	// Probes, when present, makes this an incremental join against the
	// fixed probe relation; absent means a self watch (online dedup).
	Probes []RecordJSON `json:"probes,omitempty"`
	// Resume is the per-shard epoch vector the client last saw; the missed
	// window replays first. Absent starts live-only at the current epoch.
	Resume []uint64 `json:"resume,omitempty"`
	// Mode selects the delivery shape: "sse" (default) streams frames until
	// the client disconnects or the server drains; "poll" returns one page
	// of events and closes the registration (stateless long-poll).
	Mode string `json:"mode,omitempty"`
	// MaxEvents caps one poll page (default 4096). The page only truncates
	// at a (shard, epoch) boundary, so the returned resume vector never
	// splits a mutation's events.
	MaxEvents int `json:"max_events,omitempty"`
	// WaitMS is how long a poll with no pending events waits for one
	// before returning an empty page (default 0, capped at 60s).
	WaitMS int `json:"wait_ms,omitempty"`
}

// WatchEpochFrame is the payload of an SSE "epoch" frame: sent once after
// registration (with the replayed-event count) and once more, with Final
// set, when the server drains the stream gracefully.
type WatchEpochFrame struct {
	Epochs   []uint64 `json:"epochs"`
	Replayed int      `json:"replayed,omitempty"`
	Final    bool     `json:"final,omitempty"`
}

// WatchPollResponse is one long-poll page. Resume is the vector to pass
// back to continue where this page ended; More reports that events beyond
// MaxEvents were already pending (poll again immediately).
type WatchPollResponse struct {
	Events []approxsel.WatchEvent `json:"events"`
	Epochs []uint64               `json:"epochs"`
	Resume []uint64               `json:"resume"`
	More   bool                   `json:"more,omitempty"`
}

const (
	// watchBuffer sizes the delivery channel of a served watch: burst
	// headroom between network flushes. A consumer that still falls behind
	// is disconnected with an error frame and resumes with its last vector.
	watchBuffer = 1 << 14
	// defaultPollEvents caps a poll page when the request does not.
	defaultPollEvents = 4096
	// maxPollWait bounds how long one long-poll request parks.
	maxPollWait = 60 * time.Second
)

// watchStatus maps a registration failure to its HTTP status: a resume
// vector older than the replayable window is 410 (the client must rebuild
// from a fresh join); everything else — unknown or non-watchable
// predicate, bad theta, malformed vector — is the request's fault.
func watchStatus(err error) int {
	if errors.Is(err, approxsel.ErrResumeTooOld) {
		return http.StatusGone
	}
	return http.StatusBadRequest
}

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	var req WatchRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, fmt.Errorf("server: draining, not accepting watches"))
		return
	}
	if req.Predicate == "" {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("server: missing predicate name"))
		return
	}
	h, err := s.corpus(req.Corpus)
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	// Watches hold their handler for the stream's lifetime, so they are
	// admitted against their own cap, not the request semaphore.
	select {
	case s.watchSem <- struct{}{}:
		defer func() { <-s.watchSem }()
	default:
		s.met.rejected.Add(1)
		writeError(w, http.StatusTooManyRequests, fmt.Errorf("server: at max concurrent watches (%d)", s.cfg.MaxWatches))
		return
	}
	var opts []approxsel.WatchOption
	if req.Probes != nil {
		opts = append(opts, approxsel.WithProbes(toRecords(req.Probes)...))
	}
	if req.Resume != nil {
		opts = append(opts, approxsel.WithResume(req.Resume))
	}
	opts = append(opts, approxsel.WithWatchBuffer(watchBuffer))
	switch req.Mode {
	case "", "sse":
		s.watchSSE(w, r, h, req, opts)
	case "poll":
		s.watchPoll(w, r, h, req, opts)
	default:
		s.fail(w, http.StatusBadRequest, fmt.Errorf("server: unknown watch mode %q", req.Mode))
	}
}

// deliveredVector seeds the consumer-progress vector: the resumed vector
// when the client presented one, else the vector the hub registered the
// watch at — every live event lies past it. (The corpus's current epochs,
// read any time after registration, may already be past events still in
// the channel.)
func deliveredVector(req WatchRequest, wa *approxsel.Watch) []uint64 {
	if req.Resume != nil {
		return append([]uint64(nil), req.Resume...)
	}
	return wa.RegisteredAt()
}

func sumEpochs(v []uint64) uint64 {
	var s uint64
	for _, e := range v {
		s += e
	}
	return s
}

// writeSSE emits one server-sent-event frame.
func writeSSE(w io.Writer, event string, v any) {
	data, _ := json.Marshal(v)
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// watchSSE streams the watch until the client disconnects, the consumer
// lags out, or the server drains. Frames: one initial "epoch" frame
// (registration vector + replayed count), then "match"/"unmatch" frames
// per event, then — on graceful drain — a final "epoch" frame with Final
// set, so the client knows the stream ended complete at that vector.
func (s *Server) watchSSE(w http.ResponseWriter, r *http.Request, h *corpusHandle, req WatchRequest, opts []approxsel.WatchOption) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("server: response writer cannot stream"))
		return
	}
	wa, err := h.sc.RegisterWatch(req.Predicate, req.Theta, opts...)
	if err != nil {
		s.fail(w, watchStatus(err), err)
		return
	}
	defer wa.Close()
	delivered := deliveredVector(req, wa)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// len of the delivery channel right after registration is the replay
	// preload: live events cannot be in it yet — the watch was registered
	// under the hub lock and nothing has been read.
	writeSSE(w, "epoch", WatchEpochFrame{Epochs: wa.RegisteredAt(), Replayed: len(wa.Events())})
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case e, open := <-wa.Events():
			if !open {
				if err := wa.Err(); err != nil {
					writeSSE(w, "error", map[string]string{"error": err.Error()})
				} else {
					writeSSE(w, "epoch", WatchEpochFrame{Epochs: h.sc.Epochs(), Final: true})
				}
				fl.Flush()
				return
			}
			writeSSE(w, string(e.Kind), e)
			if e.Epoch > delivered[e.Shard] {
				delivered[e.Shard] = e.Epoch
			}
			// Drain whatever else is already buffered before flushing, so a
			// burst costs one network write, not one per event.
			for more := true; more; {
				select {
				case e, open := <-wa.Events():
					if !open {
						more = false
						break
					}
					writeSSE(w, string(e.Kind), e)
					if e.Epoch > delivered[e.Shard] {
						delivered[e.Shard] = e.Epoch
					}
				default:
					more = false
				}
			}
			wa.SetDelivered(sumEpochs(delivered))
			fl.Flush()
		}
	}
}

// watchPoll serves one stateless page: replayed events first, then — when
// the page is empty and the request asked to wait — up to WaitMS for live
// ones. The registration closes with the response; the client continues by
// polling again with the returned resume vector.
func (s *Server) watchPoll(w http.ResponseWriter, r *http.Request, h *corpusHandle, req WatchRequest, opts []approxsel.WatchOption) {
	maxEvents := req.MaxEvents
	if maxEvents <= 0 {
		maxEvents = defaultPollEvents
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait > maxPollWait {
		wait = maxPollWait
	}
	wa, err := h.sc.RegisterWatch(req.Predicate, req.Theta, opts...)
	if err != nil {
		s.fail(w, watchStatus(err), err)
		return
	}
	defer wa.Close()

	var evs []approxsel.WatchEvent
	drain := func() {
		for {
			select {
			case e, open := <-wa.Events():
				if !open {
					return
				}
				evs = append(evs, e)
			default:
				return
			}
		}
	}
	drain()
	if len(evs) == 0 && wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-r.Context().Done():
		case <-timer.C:
		case e, open := <-wa.Events():
			if open {
				evs = append(evs, e)
				drain()
			}
		}
	}

	evs, resume, more := pollPage(evs, maxEvents, deliveredVector(req, wa))
	if evs == nil {
		evs = []approxsel.WatchEvent{}
	}
	writeJSON(w, http.StatusOK, WatchPollResponse{
		Events: evs,
		Epochs: h.sc.Epochs(),
		Resume: resume,
		More:   more,
	})
}

// pollPage cuts a poll page to at most maxEvents events, extending the cut
// to a (shard, epoch) boundary — the resume vector marks whole mutations
// as seen, so splitting one would lose its tail — and returns it with the
// resume vector: from, advanced past every event on the page. more reports
// events beyond the cut.
func pollPage(evs []approxsel.WatchEvent, maxEvents int, from []uint64) ([]approxsel.WatchEvent, []uint64, bool) {
	more := false
	if len(evs) > maxEvents {
		cut := maxEvents
		for cut < len(evs) && evs[cut].Shard == evs[cut-1].Shard && evs[cut].Epoch == evs[cut-1].Epoch {
			cut++
		}
		more = cut < len(evs)
		evs = evs[:cut]
	}
	resume := append([]uint64(nil), from...)
	for _, e := range evs {
		if e.Epoch > resume[e.Shard] {
			resume[e.Shard] = e.Epoch
		}
	}
	return evs, resume, more
}
