package service

import "sync"

// flightGroup coalesces concurrent computations of the same canonical key:
// the first caller (the leader) runs the computation, every caller that
// arrives while it is in flight waits and shares the leader's response. N
// identical cold requests — a thundering herd of clients, or peer-forwarded
// fills landing next to local traffic — therefore run the scheduler exactly
// once instead of N times.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// flight is one in-flight computation. resp and enc are written by the
// leader before done is closed and read-only afterwards. enc, when non-nil,
// is the encoded reply — a run's miss reply, a cache entry's hit bytes or
// a peer's bytes: HTTP followers write it verbatim, library followers use
// resp.
type flight struct {
	done chan struct{}
	resp Response
	enc  []byte
}

// do returns fn's result for key, running fn at most once across concurrent
// callers. Followers invoke onWait exactly once before blocking, so callers
// can count coalesced requests at wait time (not completion time). The
// flight is deregistered before done is closed: a caller that arrives after
// completion starts a fresh flight, which is why leaders re-check the
// result cache first.
func (g *flightGroup) do(key string, onWait func(), fn func() (Response, []byte)) (Response, []byte) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		onWait()
		<-f.done
		return f.resp, f.enc
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	// deregister-then-release also on panic so followers never deadlock;
	// the compute path recovers panics itself, so resp is always populated
	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.resp, f.enc = fn()
	return f.resp, f.enc
}
