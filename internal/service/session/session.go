// Package session implements the scheduling-session subsystem: long-lived
// server-side sessions that hold a live (graph, platform, heuristic) triple
// plus the warm scheduling state — probe Scratch and the previous run's
// commit order and schedule — so a client can stream deltas
// and get back a re-schedule that replays the untouched prefix instead of
// recomputing from scratch (heuristics.RunIncremental).
//
// The Manager owns a bounded session table with idle-TTL eviction: expired
// sessions are swept when a new one is opened, and an Open against a table
// whose live sessions are all within TTL fails with ErrFull (the HTTP layer
// answers 503 + Retry-After). Deltas to one session are serialized on a
// per-session mutex — concurrent deltas never interleave or tear state —
// while different sessions run concurrently.
//
// The warm state itself (Scratch, recorded run) is
// pointer-rich process memory and is never shipped anywhere. What makes
// sessions durable and relocatable anyway is determinism: a session's
// state is a pure function of (open request, ordered delta log) — the
// incremental-oracle suites pin warm == cold — so the compact log IS the
// session. With Config.Journal set, the Manager write-ahead-journals the
// open and every delta before acking it (internal/service/journal), and
// Recover rebuilds every acked session byte-identically after a crash by
// replaying its journal through the same cold-run path. Export/Import/
// Handoff move a session between replicas by the same token: serialize
// (state snapshot, delta count), rebuild cold on the receiver.
package session

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"oneport/internal/graph"
	"oneport/internal/heuristics"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/service/journal"
)

// Defaults for Config zero values.
const (
	DefaultMaxSessions = 256
	DefaultTTL         = 15 * time.Minute
)

var (
	// ErrFull reports that the session table is at capacity and no session
	// has been idle past the TTL; the caller should retry later.
	ErrFull = errors.New("session: table full")
	// ErrNotFound reports an unknown (or already evicted/closed) session id.
	ErrNotFound = errors.New("session: not found")
	// ErrFault marks a server-side failure (a panicking heuristic or an
	// invalid produced schedule) as opposed to a bad delta; the HTTP layer
	// answers 500. The session survives with its pre-delta state and a
	// fresh Scratch.
	ErrFault = errors.New("session: internal fault")
)

// Config sizes a Manager.
type Config struct {
	// MaxSessions bounds the table (<= 0: DefaultMaxSessions).
	MaxSessions int
	// TTL is the idle time after which a session may be evicted
	// (0: DefaultTTL; negative: sessions never expire).
	TTL time.Duration
	// Now is the clock (nil: time.Now). Tests inject a fake to drive
	// TTL eviction deterministically.
	Now func() time.Time
	// Journal, when non-nil, write-ahead-journals every session: the open
	// and each accepted delta hit the Store before the client sees the
	// ack, and Recover replays the journals after a restart. nil keeps
	// sessions volatile.
	Journal *journal.Store
}

// Params opens a session: the same fields a /schedule request carries,
// already normalized by the caller (the HTTP layer reuses the service's
// request normalization).
type Params struct {
	Graph     *graph.Graph
	Platform  *platform.Platform
	Heuristic string
	Model     sched.Model
	Opts      heuristics.ILHAOptions
	// ProbePar is ignored: every run probes on one goroutine.
	//
	// Deprecated: nothing reads it. It stays so that callers which still
	// set it compile.
	ProbePar int
}

// RunInfo reports one (re-)schedule produced by Open or Delta. Schedule is
// owned by the session's recorded state: callers must not mutate it (the
// HTTP layer only serializes it).
type RunInfo struct {
	Schedule *sched.Schedule
	// Replayed is the number of prefix commits replayed from the previous
	// run without probing (0 on Open and on full recomputes).
	Replayed int
	// Deltas is the number of deltas applied over the session's lifetime.
	Deltas int
	// Tasks/Procs reflect the session's graph and platform after the run.
	Tasks, Procs int
	// SeqTime is the sequential reference time of the session's graph on
	// its platform, for the same speedup figure /schedule reports.
	SeqTime   float64
	ElapsedNs int64
}

// Delta is one streamed mutation batch: graph ops apply first, then
// platform ops (the two sets are independent; order only matters within
// each list). At least one op is required.
type Delta struct {
	Graph    graph.Delta    `json:"graph,omitempty"`
	Platform platform.Delta `json:"platform,omitempty"`
}

// Session is one open scheduling session. All fields below mu are guarded
// by it; lastUsed is guarded by the owning Manager's mutex.
type Session struct {
	id       string
	lastUsed time.Time // guarded by Manager.mu

	mu      sync.Mutex
	g       *graph.Graph
	pl      *platform.Platform
	heur    string
	model   sched.Model
	opts    heuristics.ILHAOptions
	scratch *heuristics.Scratch
	// prev carries the last run's commit order and schedule for prefix
	// replay; nil when the heuristic has no simulable order (every delta
	// then recomputes in full, still on the warm Scratch).
	prev   *heuristics.PrevRun
	deltas int
	bytes  int64 // footprint estimate currently accounted to the Manager
	// log is the session's write-ahead journal (nil when the Manager runs
	// without one). closed marks a session handed off to another replica:
	// a delta that was blocked on mu while the handoff ran must fail with
	// ErrNotFound rather than ack into state nobody owns anymore.
	log    *journal.Log
	closed bool
}

// Manager owns the bounded session table. Safe for concurrent use.
type Manager struct {
	cfg      Config
	mu       sync.Mutex
	sessions map[string]*Session

	bytes     atomic.Int64 // summed session footprint estimates
	opened    atomic.Int64
	deltas    atomic.Int64
	evictions atomic.Int64
	replayed  atomic.Int64

	recovered     atomic.Int64 // sessions rebuilt from journals after a restart
	recoverFailed atomic.Int64 // journals whose replay failed (kept on disk)
	imported      atomic.Int64 // sessions accepted from a draining peer
	handedOff     atomic.Int64 // sessions shipped to their ring owner on drain
}

// NewManager returns a Manager with Config defaults resolved.
func NewManager(cfg Config) *Manager {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.TTL == 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Manager{cfg: cfg, sessions: make(map[string]*Session)}
}

// Open creates a session and runs the cold schedule. ctx bounds the run via
// the heuristics cancellation path. The slot is reserved before computing,
// so a full table fails fast with ErrFull (after sweeping sessions idle
// past the TTL); a failed cold run releases the slot again.
func (m *Manager) Open(ctx context.Context, p Params) (string, *RunInfo, error) {
	s := &Session{
		g:       p.Graph,
		pl:      p.Platform,
		heur:    p.Heuristic,
		model:   p.Model,
		opts:    p.Opts,
		scratch: heuristics.NewScratch(),
	}
	m.mu.Lock()
	now := m.cfg.Now()
	m.sweepLocked(now)
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		return "", nil, ErrFull
	}
	s.id = newID()
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
		// no durable open record means no ack: the client retries and the
		// table never holds a session a crash would silently lose
		m.drop(s)
		return "", nil, err
	}
	m.account(s)
	m.opened.Add(1)
	return s.id, m.info(s, res, elapsed), nil
}

// journalCreate starts a session's write-ahead log from its current state
// (caller holds s.mu). A failure is a server fault: the session must not
// be acked without its durable open record.
func (m *Manager) journalCreate(s *Session) error {
	if m.cfg.Journal == nil {
		return nil
	}
	payload, err := json.Marshal(m.snapshotLocked(s))
	if err != nil {
		return fmt.Errorf("%w: journal open: %v", ErrFault, err)
	}
	log, err := m.cfg.Journal.Create(s.id, payload)
	if err != nil {
		return fmt.Errorf("%w: journal open: %v", ErrFault, err)
	}
	s.log = log
	return nil
}

// Delta applies one delta batch to a session and re-schedules. Deltas to
// the same session serialize on its mutex; a failed delta (validation
// error, cancellation, fault) leaves the session's graph, platform and
// recorded run exactly as they were. With a journal configured, the delta
// is journaled — and under SyncAlways, on disk — before this returns
// success: an acked delta survives a crash.
func (m *Manager) Delta(ctx context.Context, id string, d Delta) (*RunInfo, error) {
	if len(d.Graph) == 0 && len(d.Platform) == 0 {
		return nil, fmt.Errorf("session: empty delta (need graph and/or platform ops)")
	}
	s := m.lookup(id)
	if s == nil {
		return nil, ErrNotFound
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.deltaLocked(ctx, s, d, true)
}

// deltaLocked applies one delta under s.mu. journaled=false is the replay
// path: the delta came FROM the journal, so it is neither re-journaled nor
// counted as fresh client traffic.
func (m *Manager) deltaLocked(ctx context.Context, s *Session, d Delta, journaled bool) (*RunInfo, error) {
	if s.closed {
		return nil, ErrNotFound
	}
	ng, dirty := s.g, []bool(nil)
	if len(d.Graph) > 0 {
		var eff graph.Effect
		var err error
		ng, eff, err = d.Graph.Apply(s.g)
		if err != nil {
			return nil, err
		}
		dirty = make([]bool, ng.NumNodes())
		for _, v := range eff.Dirty {
			dirty[v] = true
		}
	}
	npl, prev := s.pl, s.prev
	if len(d.Platform) > 0 {
		var err error
		npl, err = d.Platform.Apply(s.pl)
		if err != nil {
			return nil, err
		}
		// probes read every processor's speed, links and timelines, so no
		// prefix of the previous run survives a platform change
		prev = nil
	}
	// swap in the new pair for the run; restore on failure so the session
	// is never left holding a graph its recorded schedule does not match
	og, opl := s.g, s.pl
	s.g, s.pl = ng, npl
	res, elapsed, err := m.run(ctx, s, prev, dirty)
	if err != nil {
		s.g, s.pl = og, opl
		return nil, err
	}
	if journaled && s.log != nil {
		// write-ahead before the ack: a delta the journal cannot hold is a
		// failed delta, and the session rolls back to the state its journal
		// still describes
		payload, jerr := json.Marshal(&d)
		if jerr == nil {
			jerr = s.log.Append(payload)
		}
		if jerr != nil {
			s.g, s.pl = og, opl
			return nil, fmt.Errorf("%w: journal append: %v", ErrFault, jerr)
		}
	}
	if res.Order != nil {
		s.prev = &heuristics.PrevRun{Order: res.Order, Schedule: res.Schedule}
	} else {
		s.prev = nil
	}
	s.deltas++
	m.account(s)
	if journaled {
		m.deltas.Add(1)
		m.replayed.Add(int64(res.Replayed))
	}
	if journaled && s.log != nil && s.log.Size() > m.cfg.Journal.CompactBytes() {
		// fold the log into one snapshot record; a failed compaction is
		// non-fatal — the long log is still a correct journal
		if snap, err := json.Marshal(m.snapshotLocked(s)); err == nil {
			_ = s.log.Compact(snap)
		}
	}
	return m.info(s, res, elapsed), nil
}

// Close removes a session. Closing an unknown id reports ErrNotFound. An
// in-flight delta on the session finishes safely (it owns its state); its
// result is simply no longer reachable.
func (m *Manager) Close(id string) error {
	s := m.lookup(id)
	if s == nil {
		return ErrNotFound
	}
	m.drop(s)
	return nil
}

// run executes the incremental scheduler for a session, panic-hardened the
// same way the serving path's compute is: a panicking heuristic becomes an
// ErrFault, and the session's Scratch is dropped for a fresh one (the dead
// run's reclaim may have restocked it with buffers the panic left
// half-written — dropping is the safe option).
// The produced schedule is re-validated before being trusted.
func (m *Manager) run(ctx context.Context, s *Session, prev *heuristics.PrevRun, dirty []bool) (res *heuristics.IncResult, elapsedNs int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.scratch = heuristics.NewScratch()
			res, err = nil, fmt.Errorf("%w: %v", ErrFault, r)
		}
	}()
	tune := &heuristics.Tuning{Scratch: s.scratch, Ctx: ctx}
	began := time.Now()
	res, err = heuristics.RunIncremental(s.heur, s.g, s.pl, s.model, s.opts, tune, prev, dirty)
	elapsedNs = time.Since(began).Nanoseconds()
	if err != nil {
		return nil, 0, err
	}
	if verr := sched.Validate(s.g, s.pl, res.Schedule, s.model); verr != nil {
		return nil, 0, fmt.Errorf("%w: produced schedule failed validation: %v", ErrFault, verr)
	}
	return res, elapsedNs, nil
}

// lookup finds a session and refreshes its idle clock.
func (m *Manager) lookup(id string) *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sessions[id]
	if s != nil {
		s.lastUsed = m.cfg.Now()
	}
	return s
}

// drop removes a session from the table and releases its accounted bytes.
func (m *Manager) drop(s *Session) {
	m.mu.Lock()
	if _, ok := m.sessions[s.id]; ok {
		m.removeLocked(s)
	}
	m.mu.Unlock()
}

// removeLocked deletes a session from the table (caller holds m.mu),
// closing its journal log and removing the file: a dropped session has no
// acked state left to recover. Closing the log also fences any in-flight
// delta still holding s.mu — its append fails instead of acking into a
// removed session.
func (m *Manager) removeLocked(s *Session) {
	delete(m.sessions, s.id)
	m.bytes.Add(-atomic.LoadInt64(&s.bytes))
	if s.log != nil {
		s.log.Close()
		if m.cfg.Journal != nil {
			_ = m.cfg.Journal.Remove(s.id)
		}
	}
}

// sweepLocked evicts every session idle past the TTL. Caller holds m.mu.
// This is the LRU policy degenerate-cased on TTL: the least-recently-used
// sessions are exactly the longest-idle ones, and only those past the TTL
// may be reclaimed — an active session is never evicted to make room, the
// table answers ErrFull instead.
func (m *Manager) sweepLocked(now time.Time) {
	if m.cfg.TTL < 0 {
		return
	}
	//schedlint:allow detorder — every expired session is evicted; the set is order-free
	for _, s := range m.sessions {
		if now.Sub(s.lastUsed) > m.cfg.TTL {
			m.removeLocked(s)
			m.evictions.Add(1)
		}
	}
}

// RetryAfterSeconds estimates when an Open rejected with ErrFull is worth
// retrying: the seconds until the longest-idle session crosses the TTL
// (at least 1). With a non-expiring table it returns the default 1.
func (m *Manager) RetryAfterSeconds() int {
	if m.cfg.TTL < 0 {
		return 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	best := m.cfg.TTL
	//schedlint:allow detorder — min-fold over values; min is exact and commutative
	for _, s := range m.sessions {
		if left := m.cfg.TTL - now.Sub(s.lastUsed); left < best {
			best = left
		}
	}
	secs := int(best / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// account re-estimates a session's footprint (caller holds s.mu) and folds
// the difference into the Manager's gauge.
func (m *Manager) account(s *Session) {
	b := estimateBytes(s.g, s.prev)
	old := atomic.SwapInt64(&s.bytes, b)
	m.bytes.Add(b - old)
}

// estimateBytes roughly sizes the state a session pins: graph adjacency,
// and the recorded schedule + order kept for replay. Scratch and engine
// buffers are excluded — they are recycled capacity, not per-session
// growth. The estimate feeds the sessions_bytes gauge; it is deliberately
// cheap, not exact.
func estimateBytes(g *graph.Graph, prev *heuristics.PrevRun) int64 {
	b := int64(64)
	if g != nil {
		b += int64(g.NumNodes())*48 + int64(g.NumEdges())*64
	}
	if prev != nil && prev.Schedule != nil {
		b += int64(len(prev.Order)) * 8
		b += int64(len(prev.Schedule.Tasks)) * 40
		for i := range prev.Schedule.Comms {
			b += 48 + int64(len(prev.Schedule.Comms[i].Hops))*32
		}
	}
	return b
}

// Stats is the Manager's counter snapshot, folded into the service /stats.
type Stats struct {
	Open          int   `json:"sessions_open"`
	Bytes         int64 `json:"sessions_bytes"`
	Opened        int64 `json:"sessions_opened"`
	Deltas        int64 `json:"session_deltas"`
	Evictions     int64 `json:"session_evictions"`
	ReplayedTasks int64 `json:"session_replayed_tasks"`
	// Recovered counts sessions rebuilt from journals after a restart and
	// RecoveryFailed journals whose replay failed (kept on disk).
	// Imported/HandedOff count sessions that moved between replicas on a
	// drain (receiver/sender side respectively).
	Recovered      int64 `json:"sessions_recovered"`
	RecoveryFailed int64 `json:"session_recovery_failed"`
	Imported       int64 `json:"sessions_imported"`
	HandedOff      int64 `json:"sessions_handed_off"`
}

// StatsSnapshot returns the current counters.
func (m *Manager) StatsSnapshot() Stats {
	m.mu.Lock()
	open := len(m.sessions)
	m.mu.Unlock()
	return Stats{
		Open:           open,
		Bytes:          m.bytes.Load(),
		Opened:         m.opened.Load(),
		Deltas:         m.deltas.Load(),
		Evictions:      m.evictions.Load(),
		ReplayedTasks:  m.replayed.Load(),
		Recovered:      m.recovered.Load(),
		RecoveryFailed: m.recoverFailed.Load(),
		Imported:       m.imported.Load(),
		HandedOff:      m.handedOff.Load(),
	}
}

// info builds a RunInfo under s.mu.
func (m *Manager) info(s *Session, res *heuristics.IncResult, elapsedNs int64) *RunInfo {
	return &RunInfo{
		Schedule:  res.Schedule,
		Replayed:  res.Replayed,
		Deltas:    s.deltas,
		Tasks:     s.g.NumNodes(),
		Procs:     s.pl.NumProcs(),
		SeqTime:   s.pl.SequentialTime(s.g.TotalWeight()),
		ElapsedNs: elapsedNs,
	}
}

// newID returns a 128-bit random hex session id.
func newID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failing means the process is unusable
	}
	return hex.EncodeToString(b[:])
}
