package service

import (
	"crypto/subtle"
	"net/http"
	"strings"
)

// ringUpdate is the payload of POST /ring: a strictly newer epoch number
// and the complete replica list of that epoch. The same update must be
// pushed to every replica; until it reaches all of them, cross-epoch
// relays are rejected (409) and both sides compute locally, so a
// half-propagated membership change degrades throughput, never
// correctness.
type ringUpdate struct {
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
}

// ringInfo is the reply of GET /ring and POST /ring: the epoch this
// replica is serving, its normalized member list, and this replica's own
// identity within it.
type ringInfo struct {
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
	Self    string   `json:"self"`
	// Swapped reports whether this POST installed a new epoch (false for
	// an idempotent replay of the current one, and for GET).
	Swapped bool `json:"swapped,omitempty"`
}

// adminError is the error body of the /ring surface.
type adminError struct {
	Error string `json:"error"`
	// Epoch is the epoch this replica is serving, echoed on rejected
	// updates so the admin can see how far ahead the fleet already is.
	Epoch uint64 `json:"epoch,omitempty"`
}

// authorizeAdmin gates the admin surface on Config.AdminToken: 403 when no
// token is configured (the surface is disabled, not open), 401 on a
// missing or wrong bearer token, 0 when authorized. The comparison is
// constant-time so the token cannot be probed byte by byte.
func (s *Server) authorizeAdmin(r *http.Request) (int, string) {
	if s.cfg.AdminToken == "" {
		return http.StatusForbidden, "service: admin endpoints disabled (no AdminToken configured)"
	}
	tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok || subtle.ConstantTimeCompare([]byte(tok), []byte(s.cfg.AdminToken)) != 1 {
		return http.StatusUnauthorized, "service: missing or invalid admin token"
	}
	return 0, ""
}

// handleRingGet serves the current membership epoch (admin-only: the
// replica list is operational topology, not client surface).
func (s *Server) handleRingGet(w http.ResponseWriter, r *http.Request) {
	if status, msg := s.authorizeAdmin(r); status != 0 {
		writeJSON(w, status, adminError{Error: msg})
		return
	}
	if s.peers == nil {
		writeJSON(w, http.StatusOK, ringInfo{})
		return
	}
	st := s.peers.state.Load()
	writeJSON(w, http.StatusOK, ringInfo{Epoch: st.epoch, Members: st.members(), Self: s.peers.self})
}

// handleRingPost is the live-membership admin endpoint: it atomically
// swaps this replica's ring to a strictly newer epoch. The swap is O(1) —
// no entry migration, no draining; keys whose owner changed are lazily
// re-filled on next use — and every in-flight fill keeps the state it
// loaded, protected end to end by the epoch tag on the relay.
func (s *Server) handleRingPost(w http.ResponseWriter, r *http.Request) {
	if status, msg := s.authorizeAdmin(r); status != 0 {
		writeJSON(w, status, adminError{Error: msg})
		return
	}
	if s.peers == nil {
		writeJSON(w, http.StatusBadRequest, adminError{Error: "service: replica has no Self address; it cannot join a ring"})
		return
	}
	var u ringUpdate
	if err := decodeBody(w, r, &u); err != nil {
		writeJSON(w, http.StatusBadRequest, adminError{Error: err.Error()})
		return
	}
	st, swapped, err := s.peers.swap(u.Epoch, u.Members)
	if err != nil {
		status := http.StatusBadRequest
		if st != nil {
			status = http.StatusConflict // stale or conflicting epoch: tell the admin where we are
		}
		cur := uint64(0)
		if st != nil {
			cur = st.epoch
		}
		writeJSON(w, status, adminError{Error: err.Error(), Epoch: cur})
		return
	}
	writeJSON(w, http.StatusOK, ringInfo{Epoch: st.epoch, Members: st.members(), Self: s.peers.self, Swapped: swapped})
}
