package service

// This file is the sending half of ring-aware session handoff: when a
// replica is told to shut down, DrainSessions ships every live session to
// the replica that owns the session id's hash on a ring built from the
// SURVIVING members (this replica excluded — the departing replica may
// well own its own sessions under the serving epoch, and shipping to
// itself would be a no-op that loses them). Each handoff holds the
// session's lock across export + peer import + local close, so an acked
// delta can never slip in between what was serialized and what the peer
// now owns; sessions whose import fails stay here, journaled, and are
// recovered on the next start instead of being lost.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"

	"oneport/internal/service/relay"
	"oneport/internal/service/session"
)

// DrainSessions begins the drain (opens and imports start answering 503,
// /readyz goes not-ready), syncs every session journal to disk, and — when
// the replica is part of an active fleet — hands each live session to its
// ring owner among the surviving members. It returns how many sessions
// moved and how many were kept (no fleet, owner down or refusing, send
// failed); kept sessions remain journaled for recovery. Safe to call once
// on the SIGTERM path before http.Server.Shutdown: in-flight deltas finish
// or get 307ed, new opens bounce to healthy replicas.
func (s *Server) DrainSessions(ctx context.Context) (moved, kept int) {
	s.draining.Store(true)
	// even SyncNone journals become durable now: whatever the handoff
	// cannot move must survive the process exit
	_ = s.sessions.SyncJournals()
	ids := s.sessions.List()
	if len(ids) == 0 {
		return 0, 0
	}
	if s.peers == nil {
		return 0, len(ids)
	}
	st := s.peers.state.Load()
	if !st.active() {
		return 0, len(ids)
	}
	for _, id := range ids {
		if ctx.Err() != nil {
			kept += len(ids) - moved - kept
			break
		}
		owner := st.survivors.Owner(sha256.Sum256([]byte(id)))
		err := s.sessions.Handoff(id, func(snap *session.Snapshot) error {
			return s.sendSessionImport(ctx, owner, st.epoch, snap)
		})
		switch {
		case err == nil:
			moved++
		case errors.Is(err, session.ErrNotFound):
			// closed or evicted since List: nothing to move, nothing lost
		default:
			kept++
		}
	}
	return moved, kept
}

// sendSessionImport posts one session snapshot to a peer's import
// endpoint through the relay, tagged with the epoch the owner was
// resolved under; the relay settles the peer's breaker (see its verdict
// table). Only a 200 — the peer rebuilt and journaled the session —
// counts as delivered.
func (s *Server) sendSessionImport(ctx context.Context, owner string, epoch uint64, snap *session.Snapshot) error {
	body, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("service: encode session %s: %w", snap.ID, err)
	}
	rep, err := s.peers.relay.Do(ctx, relay.Call{Peer: owner, Path: "/session/peer/import", Body: body, Epoch: epoch})
	if err != nil {
		return fmt.Errorf("service: import session %s: %w", snap.ID, err)
	}
	// the 200 already proves delivery; the body only settles the breaker
	_, _ = rep.Read(nil)
	return nil
}
