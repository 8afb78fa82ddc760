package service

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"oneport/internal/heuristics"
	"oneport/internal/service/admit"
	"oneport/internal/service/session"
)

// This file is the HTTP face of the scheduling-session subsystem
// (internal/service/session): open a session with the same payload
// /schedule takes, stream delta batches at it, read back re-schedules
// that replayed the untouched prefix of the previous run.
//
// A session's warm state lives on one replica at a time, but it is not
// stuck there: a draining replica ships each session to its id's ring
// owner (GET /session/{id}/export → POST /session/peer/import, epoch-
// tagged like every replica-internal relay), and a replica that receives
// a request for a session it doesn't hold answers 307 with the owner in
// X-Session-Owner, so pinned clients re-pin without a proxy (see
// DESIGN.md "Session durability & handoff").

// sessionOwnerHeader names the replica a 307-redirected session request
// should re-pin to (the redirect Location carries the full URL; the
// header gives clients the base URL without parsing it back out).
const sessionOwnerHeader = "X-Session-Owner"

// SessionResponse is the reply of POST /session and
// POST /session/{id}/delta: the usual scheduling response plus the
// session coordinates. Response.Key stays empty — session results are
// not cache entries.
type SessionResponse struct {
	SessionID string `json:"session_id"`
	// Replayed is the number of task placements replayed verbatim from
	// the previous run (0 on open and after platform deltas).
	Replayed int `json:"replayed_tasks"`
	// Deltas is the number of delta batches applied so far.
	Deltas int `json:"deltas"`
	Response
}

// handleSessionOpen opens a scheduling session: the body is a /schedule
// Request (same normalization), the reply the cold schedule plus the
// session id to stream deltas at.
func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	if s.refuseWhileDraining(w) {
		return
	}
	buf, release, err := readBody(w, r)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	defer release()
	var req Request
	if err := decodeRequest(buf.Bytes(), &req); err != nil {
		s.badRequest(w, err)
		return
	}
	model, err := req.normalize()
	if err != nil {
		s.badRequest(w, err)
		return
	}
	// a session open is a cold run: it passes the gate like /schedule
	// (deltas on the open session bypass it), held across Open because the
	// run consumes real compute; the client's context bounds an admission
	// queue wait
	tk, err := s.acquire(clientLane(r, &req))
	if err != nil {
		resp := s.shedResponse("", err)
		writeJSON(w, resp.status(w), &resp)
		return
	}
	defer s.release(tk)
	ctx, cancel := s.sessionCtx(r)
	defer cancel()
	id, info, err := s.sessions.Open(ctx, session.Params{
		Graph:     req.Graph,
		Platform:  req.Platform,
		Heuristic: req.Heuristic,
		Model:     model,
		Opts:      heuristics.ILHAOptions{B: req.Options.B, ScanDepth: req.Options.ScanDepth},
	})
	if err != nil {
		s.writeSessionError(w, err)
		return
	}
	s.writeSessionResponse(w, &SessionResponse{
		SessionID: id,
		Replayed:  info.Replayed,
		Deltas:    info.Deltas,
		Response:  sessionResult(info, req.Heuristic, req.Model),
	})
}

// handleSessionDelta applies one delta batch — {"graph":[ops...],
// "platform":[ops...]} — to a session and replies with the incremental
// re-schedule. The body rides the same pooled, size-capped read path as
// /schedule.
func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	var d session.Delta
	if err := decodeBody(w, r, &d); err != nil {
		s.badRequest(w, err)
		return
	}
	id := r.PathValue("id")
	if s.admission != nil {
		// deltas on an open session never queue and are never shed — the
		// warm state is already paid for; the bypass is counted so the
		// brownout ladder's "always serve" traffic stays observable
		s.admission.NoteBypass(admit.Interactive)
	}
	ctx, cancel := s.sessionCtx(r)
	defer cancel()
	info, err := s.sessions.Delta(ctx, id, d)
	if err != nil {
		if s.redirectSession(w, r, id, err) {
			return
		}
		s.writeSessionError(w, err)
		return
	}
	s.writeSessionResponse(w, &SessionResponse{
		SessionID: id,
		Replayed:  info.Replayed,
		Deltas:    info.Deltas,
		Response:  sessionResult(info, "", ""),
	})
}

// handleSessionClose closes a session, releasing its warm state.
func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sessions.Close(id); err != nil {
		if s.redirectSession(w, r, id, err) {
			return
		}
		s.writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleSessionExport serializes a live session for a peer import (the
// drain path pushes exports itself; this endpoint lets an operator — or a
// future pull-based migration — lift a session out of a replica).
func (s *Server) handleSessionExport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.sessions.Export(id)
	if err != nil {
		if s.redirectSession(w, r, id, err) {
			return
		}
		s.writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleSessionImport is the receiving half of a session handoff: a
// draining peer posts a session Snapshot, this replica rebuilds it cold
// (byte-identical to the sender's warm state) and journals it as its own.
// Epoch rules match every replica-internal relay: a snapshot routed under
// a different membership epoch is answered 409, and the sender keeps the
// session journaled rather than placing it by a stale ownership map.
func (s *Server) handleSessionImport(w http.ResponseWriter, r *http.Request) {
	if s.refuseWhileDraining(w) {
		return
	}
	if !s.guardEpoch(w, r, "import") {
		return
	}
	var snap session.Snapshot
	if err := decodeBody(w, r, &snap); err != nil {
		s.badRequest(w, err)
		return
	}
	ctx, cancel := s.sessionCtx(r)
	defer cancel()
	id, info, err := s.sessions.Import(ctx, &snap)
	if err != nil {
		s.writeSessionError(w, err)
		return
	}
	s.writeSessionResponse(w, &SessionResponse{
		SessionID: id,
		Replayed:  info.Replayed,
		Deltas:    info.Deltas,
		Response:  sessionResult(info, snap.Heuristic, snap.Model),
	})
}

// refuseWhileDraining answers 503 to session opens and imports once the
// drain has begun: this replica is actively shipping sessions away, so
// placing new ones here only creates more handoffs (or loses the race
// with shutdown). Reports whether it wrote the refusal.
func (s *Server) refuseWhileDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	s.errors.Add(1)
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, Response{Error: "service: replica draining"})
	return true
}

// redirectSession turns an ErrNotFound for a session this replica does not
// hold into a 307 at the id's ring owner, when a fleet is configured and
// the owner is someone else: after a drain handoff (or a client pinned to
// the wrong replica from the start), the client replays the same request
// at the Location and re-pins to the X-Session-Owner base URL. Reports
// whether it wrote the redirect.
func (s *Server) redirectSession(w http.ResponseWriter, r *http.Request, id string, err error) bool {
	if !errors.Is(err, session.ErrNotFound) || s.peers == nil {
		return false
	}
	sum := sha256.Sum256([]byte(id))
	owner, isSelf, _, ok := s.peers.owner(sum)
	if !ok {
		return false
	}
	if isSelf {
		// This replica owns the id but doesn't hold the session. While
		// draining that has one cause — DrainSessions shipped it to its
		// owner on the SURVIVOR ring (self excluded) — so point there;
		// otherwise the session is genuinely gone (expired, never opened)
		// and a 404 is the honest answer.
		if !s.draining.Load() {
			return false
		}
		if owner, ok = s.peers.state.Load().survivorOwner(sum); !ok {
			return false
		}
	}
	s.sessionRedirects.Add(1)
	w.Header().Set(sessionOwnerHeader, owner)
	w.Header().Set("Location", owner+r.URL.RequestURI())
	writeJSON(w, http.StatusTemporaryRedirect, Response{Error: fmt.Sprintf(
		"service: session %s is not held here; its ring owner is %s", id, owner)})
	return true
}

// sessionCtx bounds one session run: the client's context (a session run
// serves exactly the client that sent the delta — there is no
// singleflight here, so hanging up may cancel the run), tightened by
// Config.RequestTimeout when set.
func (s *Server) sessionCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if d := s.cfg.RequestTimeout; d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return r.Context(), func() {}
}

// sessionResult shapes a session run into the /schedule response form.
// heur/model are echoed when known (open); delta replies leave them to
// the client, which chose them at open time.
func sessionResult(info *session.RunInfo, heur, model string) Response {
	speedup := 0.0
	if ms := info.Schedule.Makespan(); ms > 0 {
		speedup = info.SeqTime / ms
	}
	return Response{
		Heuristic: heur,
		Model:     model,
		Tasks:     info.Tasks,
		Makespan:  info.Schedule.Makespan(),
		Speedup:   speedup,
		Comms:     info.Schedule.CommCount(),
		ElapsedNs: info.ElapsedNs,
		Schedule:  info.Schedule,
	}
}

// writeSessionError maps session failures onto the service's status
// conventions: a full table and a deadline abort are retryable 503s, an
// unknown session 404, a server-side fault 500, and everything else — bad
// deltas, invalid requests — 400.
func (s *Server) writeSessionError(w http.ResponseWriter, err error) {
	s.errors.Add(1)
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, session.ErrFull):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(s.sessions.RetryAfterSeconds()))
	case errors.Is(err, heuristics.ErrCanceled):
		s.timeouts.Add(1)
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		if d := s.cfg.RequestTimeout; d > 0 {
			err = fmt.Errorf("service: session run exceeded the %s request deadline", d)
		}
	case errors.Is(err, session.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, session.ErrFault):
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, Response{Error: err.Error()})
}

// writeSessionResponse writes a session reply, encoded once by the append
// encoder into a pooled buffer, or streamed through encoding/json for
// bodies whose estimate exceeds the streaming threshold — the same one
// and wire mark as /schedule, so a delta on a huge session never stages a
// many-megabyte body in pooled buffers. A reply the append encoder refuses
// goes to writeJSON, whose encoding/json refuses it too and answers 500.
func (s *Server) writeSessionResponse(w http.ResponseWriter, resp *SessionResponse) {
	if s.shouldStream(&resp.Response) {
		w.Header().Set(streamMarkHeader, "1")
		streamJSON(w, http.StatusOK, resp)
		return
	}
	bp := encodePool.Get().(*[]byte)
	defer encodePool.Put(bp)
	b, err := appendSessionResponse((*bp)[:0], resp)
	*bp = b
	if err != nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	*bp = append(b, '\n')
	writeRaw(w, http.StatusOK, *bp)
}
