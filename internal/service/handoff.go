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
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"oneport/internal/service/ring"
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
	var survivors []string
	for _, m := range st.members() {
		if m != s.peers.self {
			survivors = append(survivors, m)
		}
	}
	if len(survivors) == 0 {
		return 0, len(ids)
	}
	surv := ring.New(survivors, 0)
	for _, id := range ids {
		if ctx.Err() != nil {
			kept += len(ids) - moved - kept
			break
		}
		owner := surv.Owner(sha256.Sum256([]byte(id)))
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
// endpoint, tagged with the epoch the owner was resolved under, settling
// the peer's circuit breaker with the verdict it earned (the same rules
// as cache fills: transport failure and 5xx other than a 503 shed are the
// peer's fault, any completed verdict proves it alive, our own
// cancellation proves nothing). Only a 200 — the peer rebuilt and
// journaled the session — counts as delivered.
func (s *Server) sendSessionImport(ctx context.Context, owner string, epoch uint64, snap *session.Snapshot) error {
	now := time.Now()
	if !s.peers.breakers.Allow(owner, now) {
		return fmt.Errorf("service: peer %s breaker open", owner)
	}
	body, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("service: encode session %s: %w", snap.ID, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/session/peer/import", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ringEpochHeader, strconv.FormatUint(epoch, 10))
	hr, err := s.peers.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			s.peers.breakers.Cancel(owner)
		} else {
			s.peers.breakers.Failure(owner, time.Now())
		}
		return err
	}
	defer drainClose(hr.Body)
	switch {
	case hr.StatusCode == http.StatusOK:
		s.peers.breakers.Success(owner)
		return nil
	case hr.StatusCode == http.StatusConflict:
		// epoch skew mid-rollout: the owner is alive but routing by a
		// different membership map — keep the session journaled here
		s.peers.skews.Add(1)
		s.peers.breakers.Success(owner)
		return fmt.Errorf("service: peer %s serves a different ring epoch", owner)
	case hr.StatusCode >= 500 && hr.StatusCode != http.StatusServiceUnavailable:
		s.peers.breakers.Failure(owner, time.Now())
		return fmt.Errorf("service: peer %s import failed: %s", owner, hr.Status)
	default:
		// 4xx or a 503 shed: the peer answered — alive, but refusing;
		// overload must never masquerade as peer death
		s.peers.breakers.Success(owner)
		return fmt.Errorf("service: peer %s refused import: %s", owner, hr.Status)
	}
}
