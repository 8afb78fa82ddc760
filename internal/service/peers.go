package service

import (
	"crypto/sha256"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"oneport/internal/service/breaker"
	"oneport/internal/service/relay"
	"oneport/internal/service/ring"
)

// streamMarkHeader marks a response that was encoded straight to the wire
// (no staged body). A requester relaying a peer fill detects the mark and
// streams the body through to its own client instead of staging it.
const streamMarkHeader = "X-Sched-Stream"

// ringState is one immutable epoch of fleet membership: a version number
// and the consistent-hash ring built from that epoch's replica list. A nil
// ring (epoch 0) means the replica has not joined a fleet. States are
// swapped atomically and whole — a request routes an entire fill by the
// one state it loaded, never by a torn mix of two epochs.
type ringState struct {
	epoch uint64
	ring  *ring.Ring
	// survivors is the ring of the epoch's members minus this replica:
	// where DrainSessions ships sessions, and where a draining replica
	// redirects the session ids that hash to itself.
	survivors *ring.Ring
}

// newRingState builds the state of one epoch over r, as seen by self.
func newRingState(epoch uint64, r *ring.Ring, self string) *ringState {
	var rest []string
	for _, m := range r.Members() {
		if m != self {
			rest = append(rest, m)
		}
	}
	return &ringState{epoch: epoch, ring: r, survivors: ring.New(rest, 0)}
}

// active reports whether this epoch has anyone to forward to.
func (st *ringState) active() bool {
	return st != nil && st.ring != nil && st.ring.Size() >= 2
}

// members returns the epoch's replica list (nil before joining a fleet).
func (st *ringState) members() []string {
	if st == nil || st.ring == nil {
		return nil
	}
	return st.ring.Members()
}

// peerSet is the requester-side half of the distributed cache: the current
// membership epoch (swappable live via POST /ring) and the relay that
// carries every call to a peer — its HTTP client, and the per-peer circuit
// breakers that degrade the server to local-only compute while an owner
// is down. nil means the replica has no identity (Config.Self empty) and
// can never participate in a fleet; a non-nil peerSet with an inactive
// ring is a single replica that may be joined into a fleet later.
type peerSet struct {
	self  string
	relay *relay.Relay

	state atomic.Pointer[ringState]
	swaps atomic.Int64 // accepted membership swaps
}

// newPeerSet builds the peer layer from Config.Self and Config.Peers. The
// initial ring is built over peers ∪ {self} — every replica must be handed
// the same full replica list for the fleet to agree on ownership — at
// epoch 1; with no peers the replica starts alone at epoch 0, ready to be
// joined into a fleet by an admin push. Returns nil only when self is
// empty: a replica without an advertised identity cannot own ring
// segments.
func newPeerSet(self string, peers []string, client *http.Client, brk breaker.Config) *peerSet {
	self = ring.Normalize(self)
	if self == "" {
		return nil
	}
	if client == nil {
		// failure detection must be much faster than the compute-scale
		// total timeout, or a hung owner stalls every cold request for its
		// keyspace share until the full timeout: a dead or black-holed host
		// fails at dial (5 s), a connected-but-silent owner at the response
		// header (2 min — fills whose legitimate compute exceeds it degrade
		// to a duplicate local run, which beats minutes of stalling; pass
		// Config.PeerClient to retune for slower heuristics).
		client = &http.Client{
			Timeout: 5 * time.Minute,
			Transport: &http.Transport{
				DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
				TLSHandshakeTimeout:   5 * time.Second,
				ResponseHeaderTimeout: 2 * time.Minute,
				MaxIdleConnsPerHost:   16,
			},
		}
	}
	p := &peerSet{self: self, relay: relay.New(client, breaker.NewSet(brk))}
	st := &ringState{}
	if len(peers) > 0 {
		st = newRingState(1, ring.New(append([]string{self}, peers...), 0), self)
	}
	p.state.Store(st)
	return p
}

// epoch returns the current membership epoch.
func (p *peerSet) epoch() uint64 { return p.state.Load().epoch }

// owner maps a canonical sum to its owning replica under the current
// epoch. ok is false when the ring is inactive (no fleet, or alone in it);
// the returned epoch is the one the caller must tag the relay with, so
// ownership and tag always come from the same atomically-loaded state.
func (p *peerSet) owner(sum [sha256.Size]byte) (member string, isSelf bool, epoch uint64, ok bool) {
	st := p.state.Load()
	if !st.active() {
		return "", false, st.epoch, false
	}
	member = st.ring.Owner(sum)
	return member, member == p.self, st.epoch, true
}

// survivorOwner maps a sum to its owner on the survivor ring — the ring
// DrainSessions hands sessions to. ok is false when the fleet is inactive.
// An active ring has at least two distinct members, so its survivor ring
// is never empty.
func (st *ringState) survivorOwner(sum [sha256.Size]byte) (member string, ok bool) {
	if !st.active() {
		return "", false
	}
	return st.survivors.Owner(sum), true
}

// swap installs a new membership epoch. Epochs are strictly monotonic: a
// push below the current epoch is stale (rejected), a push at the current
// epoch is accepted only as an idempotent replay of the identical member
// list (so an admin can safely re-push to a replica that already has it),
// and a higher epoch replaces the state atomically. Entries whose owner
// changed are NOT migrated — they are lazily re-filled on next use, which
// is what makes the swap O(1) and safe under live traffic.
func (p *peerSet) swap(epoch uint64, members []string) (*ringState, bool, error) {
	if epoch == 0 {
		return nil, false, fmt.Errorf("service: ring epoch must be positive")
	}
	r := ring.New(members, 0)
	if r.Size() == 0 {
		return nil, false, fmt.Errorf("service: ring update has no members")
	}
	next := newRingState(epoch, r, p.self)
	for {
		cur := p.state.Load()
		if epoch < cur.epoch {
			return cur, false, fmt.Errorf("service: stale ring epoch %d (serving epoch %d)", epoch, cur.epoch)
		}
		if epoch == cur.epoch {
			if cur.ring != nil && sameMembers(cur.ring.Members(), r.Members()) {
				return cur, false, nil // idempotent replay
			}
			return cur, false, fmt.Errorf("service: conflicting membership for current epoch %d", epoch)
		}
		if p.state.CompareAndSwap(cur, next) {
			p.swaps.Add(1)
			return next, true, nil
		}
	}
}

// sameMembers compares two normalized, sorted member lists.
func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
