package session

// This file is the durability and mobility half of the Manager: the
// serialized session form (Snapshot), journal recovery after a restart,
// and the export/import/handoff path that moves live sessions between
// replicas when one drains. All of it leans on one invariant: rebuilding
// a session cold from its snapshot state reproduces the warm state
// byte-identically (the RunIncremental oracle suites pin warm == cold),
// so a session is fully described by what Snapshot carries.

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"oneport/internal/cli"
	"oneport/internal/graph"
	"oneport/internal/heuristics"
	"oneport/internal/platform"
	"oneport/internal/service/journal"
)

// Snapshot is a session's complete serialized state: the journal's open
// and snapshot record payload, and the body of the peer export/import
// handoff. Graph and Platform are the CURRENT state (all applied deltas
// folded in), so a receiver rebuilds with one cold run, not a replay.
type Snapshot struct {
	ID        string             `json:"id,omitempty"`
	Graph     *graph.Graph       `json:"graph"`
	Platform  *platform.Platform `json:"platform"`
	Heuristic string             `json:"heuristic"`
	// Model is the canonical model name (cli.ModelName form).
	Model string `json:"model"`
	B     int    `json:"b,omitempty"`
	// ScanDepth is ILHA's Step-1 scan depth.
	ScanDepth int `json:"scan_depth,omitempty"`
	// ProbePar is decoded and ignored, and never written: journals and
	// handoffs from an earlier version carry it, and the peer import
	// decodes with DisallowUnknownFields.
	ProbePar int `json:"probe_par,omitempty"`
	// Deltas is the session's lifetime delta count at snapshot time, so
	// the client-visible counter survives recovery and handoff.
	Deltas int `json:"deltas"`
}

// snapshotLocked serializes a session's current state (caller holds s.mu).
func (m *Manager) snapshotLocked(s *Session) *Snapshot {
	return &Snapshot{
		ID:        s.id,
		Graph:     s.g,
		Platform:  s.pl,
		Heuristic: s.heur,
		Model:     cli.ModelName(s.model),
		B:         s.opts.B,
		ScanDepth: s.opts.ScanDepth,
		Deltas:    s.deltas,
	}
}

// sessionFromSnapshot validates a snapshot and builds the in-memory
// session (cold: no prev, fresh Scratch; the caller runs it).
func sessionFromSnapshot(id string, snap *Snapshot) (*Session, error) {
	if snap.ID != "" && snap.ID != id {
		return nil, fmt.Errorf("session: snapshot id %q does not match %q", snap.ID, id)
	}
	if snap.Graph == nil || snap.Graph.NumNodes() == 0 {
		return nil, fmt.Errorf("session: snapshot has no graph")
	}
	if snap.Platform == nil || snap.Platform.NumProcs() == 0 {
		return nil, fmt.Errorf("session: snapshot has no platform")
	}
	model, err := cli.ParseModel(snap.Model)
	if err != nil {
		return nil, err
	}
	if snap.Deltas < 0 {
		return nil, fmt.Errorf("session: snapshot delta count %d is negative", snap.Deltas)
	}
	return &Session{
		id:      id,
		g:       snap.Graph,
		pl:      snap.Platform,
		heur:    snap.Heuristic,
		model:   model,
		opts:    heuristics.ILHAOptions{B: snap.B, ScanDepth: snap.ScanDepth},
		scratch: heuristics.NewScratch(),
		deltas:  snap.Deltas,
	}, nil
}

// validImportID accepts exactly the ids newID generates — 32 lowercase hex
// digits — so an imported id can never escape the journal directory or
// collide with the id grammar clients rely on.
func validImportID(id string) bool {
	if len(id) != 32 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Recover rebuilds every journaled session after a restart: each journal's
// open/snapshot state runs cold, then the journaled deltas replay in order
// through the same path live deltas take — so the recovered warm state is
// byte-identical to the pre-crash state. Journals whose replay fails (an
// unknown heuristic after a downgrade, a payload that no longer validates)
// are kept on disk and counted, never deleted: the operator keeps the
// evidence. Recovered sessions are admitted even past MaxSessions — they
// were all live and acked before the crash; the table re-bounds itself
// through TTL eviction and Open's capacity check.
func (m *Manager) Recover(ctx context.Context) (recovered, failed int, err error) {
	if m.cfg.Journal == nil {
		return 0, 0, nil
	}
	replays, err := m.cfg.Journal.Recover()
	if err != nil {
		return 0, 0, err
	}
	for i := range replays {
		rp := &replays[i]
		if rerr := m.recoverOne(ctx, rp); rerr != nil {
			rp.Log.Close()
			m.recoverFailed.Add(1)
			failed++
			continue
		}
		m.recovered.Add(1)
		recovered++
	}
	return recovered, failed, nil
}

// recoverOne rebuilds one session from its journal replay.
func (m *Manager) recoverOne(ctx context.Context, rp *journal.Replay) error {
	var snap Snapshot
	if err := json.Unmarshal(rp.Open, &snap); err != nil {
		return fmt.Errorf("session: journal %s open record: %w", rp.ID, err)
	}
	s, err := sessionFromSnapshot(rp.ID, &snap)
	if err != nil {
		return err
	}
	s.log = rp.Log
	s.mu.Lock()
	defer s.mu.Unlock()
	res, _, err := m.run(ctx, s, nil, nil)
	if err != nil {
		return err
	}
	if res.Order != nil {
		s.prev = &heuristics.PrevRun{Order: res.Order, Schedule: res.Schedule}
	}
	for i, raw := range rp.Deltas {
		var d Delta
		if err := json.Unmarshal(raw, &d); err != nil {
			return fmt.Errorf("session: journal %s delta %d: %w", rp.ID, i, err)
		}
		if _, err := m.deltaLocked(ctx, s, d, false); err != nil {
			return fmt.Errorf("session: journal %s delta %d: %w", rp.ID, i, err)
		}
	}
	m.mu.Lock()
	s.lastUsed = m.cfg.Now()
	m.sessions[s.id] = s
	m.mu.Unlock()
	m.account(s)
	return nil
}

// Export serializes a live session for a peer to import. The returned
// Snapshot aliases the session's current graph/platform — both are
// replaced, never mutated in place, by later deltas, so the caller may
// marshal it without holding any lock.
func (m *Manager) Export(id string) (*Snapshot, error) {
	s := m.lookup(id)
	if s == nil {
		return nil, ErrNotFound
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrNotFound
	}
	return m.snapshotLocked(s), nil
}

// Import installs a session exported by another replica: cold-run the
// snapshot state (byte-identical to the exporter's warm state) and journal
// it as a fresh open. An existing session under the same id is replaced —
// the exporter serialized its copy under the session lock, so the incoming
// state is at least as fresh as anything this replica holds (a stale copy
// only exists here if an earlier import's ack was lost and the exporter
// retried). Unlike Recover, an import past capacity fails with ErrFull:
// the sender keeps the session journaled instead.
func (m *Manager) Import(ctx context.Context, snap *Snapshot) (string, *RunInfo, error) {
	if !validImportID(snap.ID) {
		return "", nil, fmt.Errorf("session: import id %q is not a 32-hex session id", snap.ID)
	}
	s, err := sessionFromSnapshot(snap.ID, snap)
	if err != nil {
		return "", nil, err
	}
	m.mu.Lock()
	now := m.cfg.Now()
	m.sweepLocked(now)
	if old := m.sessions[s.id]; old != nil {
		m.removeLocked(old)
	} else if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		return "", nil, ErrFull
	}
	s.lastUsed = now
	m.sessions[s.id] = s
	m.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	res, elapsed, err := m.run(ctx, s, nil, nil)
	if err != nil {
		m.drop(s)
		return "", nil, err
	}
	if res.Order != nil {
		s.prev = &heuristics.PrevRun{Order: res.Order, Schedule: res.Schedule}
	}
	if err := m.journalCreate(s); err != nil {
		m.drop(s)
		return "", nil, err
	}
	m.account(s)
	m.imported.Add(1)
	return s.id, m.info(s, res, elapsed), nil
}

// Handoff ships one session to a peer and closes the local copy only once
// send reports the peer holds it. The session lock is held across the
// whole exchange, which is the no-lost-ack guarantee: no delta can be
// acked here after the exported state was serialized, and a delta blocked
// on the lock wakes to a closed session (ErrNotFound → the HTTP layer's
// 307 points the client at the new owner). A failed send leaves the
// session — and its journal — fully intact on this replica.
func (m *Manager) Handoff(id string, send func(*Snapshot) error) error {
	s := m.lookup(id)
	if s == nil {
		return ErrNotFound
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrNotFound
	}
	// The documented export-under-lock handoff: holding s.mu across the
	// peer import is exactly what guarantees no delta can be acked here
	// after the exported state was serialized (DESIGN.md "Session
	// durability & handoff"); only this one session's deltas wait, and
	// they wake to a 307 at the new owner.
	//schedlint:allow lockio — export-under-lock is the no-lost-ack guarantee
	if err := send(m.snapshotLocked(s)); err != nil {
		return err
	}
	s.closed = true
	m.drop(s)
	m.handedOff.Add(1)
	return nil
}

// List returns the live session ids in sorted order (drain iterates it;
// the set may change underneath, which Handoff tolerates per-id). The
// order is sorted, not map order, so a drain cut short by its context
// keeps and ships a reproducible set — chaos runs and handoff tests see
// the same partition every time.
func (m *Manager) List() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// SyncJournals flushes every live session's journal to disk regardless of
// fsync policy — the drain path calls it so even SyncNone sessions are
// durable before the process exits. Journals sync outside the lock, in
// sorted session order: when several journals fail, WHICH error is
// reported must not depend on map order.
func (m *Manager) SyncJournals() error {
	type entry struct {
		id  string
		log *journal.Log
	}
	m.mu.Lock()
	logs := make([]entry, 0, len(m.sessions))
	for id, s := range m.sessions {
		if s.log != nil {
			logs = append(logs, entry{id, s.log})
		}
	}
	m.mu.Unlock()
	slices.SortFunc(logs, func(a, b entry) int { return strings.Compare(a.id, b.id) })
	var first error
	for _, l := range logs {
		if err := l.log.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
