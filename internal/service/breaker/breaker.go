// Package breaker implements the per-peer circuit breakers of the
// replica fleet: the health layer between "this peer answered" and "stop
// asking this peer for a while". A Breaker tracks one remote endpoint
// through the classic three-state machine — closed (requests flow),
// open (requests denied until a backoff window elapses) and half-open
// (exactly one probe request is let through to test recovery) — with
// exponential backoff and jitter on consecutive failures, so a dead peer
// costs one failed round-trip per growing window instead of one per
// request, and a recovered peer is readmitted by a single cheap probe
// rather than a thundering herd.
//
// Breakers are gated and settled only by internal/service/relay, on behalf
// of its four callers: the /schedule cache fill, a drain's session import,
// the sweep worker's ring fill and the sweep coordinator's dispatch. A
// replica's cache fills, imports and ring fills share one Set, so every
// view of a peer's health agrees. Callers pass time explicitly
// (Allow/Failure take `now`), which keeps the state machine deterministic
// under test.
package breaker

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// State is a breaker's position in the closed → open → half-open cycle.
type State int

const (
	// Closed: the peer is believed healthy; requests flow.
	Closed State = iota
	// Open: the peer failed recently; requests are denied until the
	// backoff window elapses.
	Open
	// HalfOpen: the backoff elapsed; exactly one probe request is in
	// flight to test recovery, everything else is still denied.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// Config tunes a breaker. The zero value resolves to the defaults below.
type Config struct {
	// Threshold is the number of consecutive failures that opens the
	// breaker (default 1: peers are replicas of ourselves, and one failed
	// fill already has a cheap local fallback, so there is no reason to
	// burn more round-trips confirming the outage).
	Threshold int
	// BaseDelay is the first open window (default 500ms). Each further
	// consecutive failure doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 30s).
	MaxDelay time.Duration
	// Jitter is the fraction of each delay that is randomized (default
	// 0.2: the window is delay * [1-Jitter/2, 1+Jitter/2)). Jitter keeps
	// a fleet that lost the same peer from re-probing it in lockstep.
	// Negative disables jitter deterministically.
	Jitter float64
}

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = 1
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 500 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 30 * time.Second
	}
	if c.Jitter == 0 {
		c.Jitter = 0.2
	}
	return c
}

// Breaker is the circuit state of one peer. It is safe for concurrent
// use; construct via NewSet (or use the zero value with cfg defaults via
// New).
type Breaker struct {
	mu      sync.Mutex
	cfg     Config
	state   State
	fails   int       // consecutive failures
	until   time.Time // open: deny until this instant
	probing bool      // half-open: the single probe slot is taken
	opens   int64     // cumulative closed/half-open -> open transitions
}

// New returns a closed breaker with the given config (zero-value fields
// use the package defaults).
func New(cfg Config) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a request to the peer may proceed at `now`. In
// the open state it returns false until the backoff window elapses, at
// which point the first caller becomes the half-open probe (Allow true)
// and everyone else keeps being denied until that probe settles. Every
// allowed request MUST be settled with exactly one Success, Failure or
// Cancel call — the half-open probe slot is only released by settling.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if now.Before(b.until) {
			return false
		}
		b.state = HalfOpen
		b.probing = true
		return true
	default: // HalfOpen
		if b.probing {
			return false // the probe slot is taken
		}
		b.probing = true // a canceled probe released the slot; take it
		return true
	}
}

// Success settles an allowed request that succeeded: consecutive
// failures reset and a half-open probe closes the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.fails = 0
	b.probing = false
}

// Cancel settles an allowed request that produced no verdict about the
// peer — typically the requester's own client hung up mid-flight. It
// releases a half-open probe slot without moving the state machine, so a
// client cancellation can never trip (or heal) a breaker.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// Cancel settles an allowed request to name that produced no verdict.
func (s *Set) Cancel(name string) { s.Get(name).Cancel() }

// Failure settles an allowed request that failed for a peer-attributable
// reason. Consecutive failures past Config.Threshold open the breaker
// with an exponentially growing, jittered window; a failed half-open
// probe re-opens it with the next-longer window.
func (b *Breaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	b.probing = false
	if b.state == Closed && b.fails < b.cfg.Threshold {
		return
	}
	b.state = Open
	b.until = now.Add(b.backoff())
	b.opens++
}

// backoff computes the current open window from the consecutive-failure
// count: BaseDelay doubled per failure beyond the opening one, capped at
// MaxDelay, then jittered. Call with b.mu held.
func (b *Breaker) backoff() time.Duration {
	d := b.cfg.BaseDelay
	for i := b.cfg.Threshold; i < b.fails && d < b.cfg.MaxDelay; i++ {
		d *= 2
	}
	if d > b.cfg.MaxDelay {
		d = b.cfg.MaxDelay
	}
	if j := b.cfg.Jitter; j > 0 {
		// delay * [1-j/2, 1+j/2): full windows on average, decorrelated
		// probes across a fleet
		d = time.Duration(float64(d) * (1 - j/2 + j*rand.Float64()))
	}
	return d
}

// CurrentState reports the breaker's state at `now` without consuming
// the half-open probe slot (an elapsed open window reads as half-open).
func (b *Breaker) CurrentState(now time.Time) State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && !now.Before(b.until) {
		return HalfOpen
	}
	return b.state
}

// Set is a collection of breakers keyed by peer name (the service keys
// by replica base URL), sharing one Config. It is safe for concurrent
// use; the zero value is NOT usable — construct with NewSet.
type Set struct {
	cfg   Config
	mu    sync.Mutex
	m     map[string]*Breaker
	trips atomic.Int64 // denied requests (fast-failed without a round-trip)
}

// NewSet returns an empty Set whose breakers use cfg (zero-value fields
// resolve to package defaults).
func NewSet(cfg Config) *Set {
	return &Set{cfg: cfg.withDefaults(), m: make(map[string]*Breaker)}
}

// Get returns the breaker for name, creating a closed one on first use.
func (s *Set) Get(name string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[name]
	if !ok {
		b = New(s.cfg)
		s.m[name] = b
	}
	return b
}

// Allow reports whether a request to name may proceed at `now`, counting
// denials in the set's trip counter. An allowed request must be settled
// with Success, Failure or Cancel.
func (s *Set) Allow(name string, now time.Time) bool {
	if s.Get(name).Allow(now) {
		return true
	}
	s.trips.Add(1)
	return false
}

// Success settles an allowed request to name that succeeded.
func (s *Set) Success(name string) { s.Get(name).Success() }

// Failure settles an allowed request to name that failed for a
// peer-attributable reason.
func (s *Set) Failure(name string, now time.Time) { s.Get(name).Failure(now) }

// Counters summarizes a Set for stats export.
type Counters struct {
	// Open is the number of breakers currently in the open or half-open
	// state (peers being avoided or probed).
	Open int `json:"open"`
	// Opens is the cumulative number of closed/half-open -> open
	// transitions across all breakers.
	Opens int64 `json:"opens"`
	// Trips is the cumulative number of requests fast-failed by an open
	// breaker (degraded without a round-trip).
	Trips int64 `json:"trips"`
}

// Stats snapshots the set's counters at `now`.
func (s *Set) Stats(now time.Time) Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := Counters{Trips: s.trips.Load()}
	//schedlint:allow detorder — integer sums over per-breaker counters commute
	for _, b := range s.m {
		b.mu.Lock()
		if b.state == Open || b.state == HalfOpen {
			c.Open++
		}
		c.Opens += b.opens
		b.mu.Unlock()
	}
	return c
}
