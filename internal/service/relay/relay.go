// Package relay is the one path every replica-to-replica call takes: the
// /schedule cache fill, a drain's session import, the sweep worker's ring
// fill and the sweep coordinator's dispatch. It owns the ring-epoch tag
// those calls carry, the receivers' epoch guard, and the table that turns
// the outcome of one call into exactly one verdict for the peer's circuit
// breaker:
//
//	outcome of one call                          verdict  retry
//	breaker open                                 —        nothing sent
//	transport error, caller's ctx done           Cancel   —
//	transport error, caller's ctx live           Failure  once; settled after the 2nd
//	409 epoch skew                               Success  — (one skew counted)
//	503 shed                                     Success  —
//	other 5xx                                    Failure  —
//	any other non-200                            Success  —
//	200, body torn, oversized or undecodable     Failure  —
//	200 streamed, our client stops reading       Cancel   —
//	200, body good                               Success  —
//
// A 200 body that breaks because the caller's ctx ended counts as a
// transport error with the ctx done, not a torn body: our own
// cancellation proves nothing about the peer. Overload (503) and epoch skew (409) come from a live
// peer, so they never trip its breaker.
package relay

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"oneport/internal/service/breaker"
)

// EpochHeader tags a call with the ring epoch its sender routed by. The
// receiver serves the call only under the same epoch and answers 409
// otherwise, so two replicas holding different membership maps never
// complete a call between them: a half-propagated epoch costs a local
// compute, never a response produced under the wrong ownership map.
const EpochHeader = "X-Ring-Epoch"

// maxBody caps how much of a peer's 200 body a call reads: a compromised
// or confused peer must not balloon this replica's memory. Far above any
// real encoded schedule or shard result, far below "unbounded".
const maxBody = 256 << 20

// maxErrorBody caps the read of a non-200 body, which only carries an
// error message.
const maxErrorBody = 64 << 10

// attempts is the connection budget of one call: a transport error with
// the caller's ctx still live gets one more connection, which covers the
// blips worth retrying (a connection dropped before the answer). Answers
// the peer delivered — any status, any body — are never retried.
const attempts = 2

// errOpen is the error of a call its peer's open breaker refused: nothing
// was sent.
var errOpen = errors.New("peer breaker open")

// Relay sends replica-to-replica calls through one HTTP client and one
// set of per-peer circuit breakers, and counts their outcomes. It is safe
// for concurrent use.
type Relay struct {
	client   *http.Client
	breakers *breaker.Set
	maxBody  int64
	skews    atomic.Int64
	failed   atomic.Int64
}

// New returns a relay over client (nil: http.DefaultClient) that settles
// the breakers of breakers.
func New(client *http.Client, breakers *breaker.Set) *Relay {
	if client == nil {
		client = http.DefaultClient
	}
	return &Relay{client: client, breakers: breakers, maxBody: maxBody}
}

// Breakers returns the per-peer circuit breakers the relay settles.
func (rl *Relay) Breakers() *breaker.Set { return rl.breakers }

// Counters are a relay's cumulative outcome counts.
type Counters struct {
	// Skews counts epoch-skew 409s, answered by this replica's guard or
	// received by its calls.
	Skews int64
	// Failed counts calls that degraded for a peer-side reason: every
	// Failure verdict and every 503 shed.
	Failed int64
}

// Counters snapshots the relay's counts.
func (rl *Relay) Counters() Counters {
	return Counters{Skews: rl.skews.Load(), Failed: rl.failed.Load()}
}

// Call is one replica-to-replica request.
type Call struct {
	Peer  string // the receiver's base URL; keys its breaker
	Path  string // the endpoint, e.g. "/cache/peer"
	Body  []byte // the JSON request body
	Epoch uint64 // the ring epoch the sender routed by; 0 sends no tag
	// Header holds further request headers, such as the client's tenant.
	Header http.Header
}

// StatusError is a non-200 answer. The relay has settled the breaker.
type StatusError struct {
	Peer string
	Code int
	// Msg is the body's "error" field, or the status line when the body
	// carries none.
	Msg string
	// RetryAfter is the peer's numeric Retry-After hint (0: none given).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("peer %s answered %d: %s", e.Peer, e.Code, e.Msg)
}

// Do sends c to its peer and applies the table in the package comment.
// An error means the call is over and its breaker settled: errOpen (wrapped)
// when nothing was sent, a *StatusError for a non-200 answer, otherwise
// the transport error. A nil error means the peer answered 200: the caller
// owns the Reply and must finish it with exactly one Read or Stream, which
// settles the breaker.
func (rl *Relay) Do(ctx context.Context, c Call) (*Reply, error) {
	if !rl.breakers.Allow(c.Peer, time.Now()) {
		return nil, fmt.Errorf("relay: %s: %w", c.Peer, errOpen)
	}
	var hr *http.Response
	var err error
	for try := 1; ; try++ {
		if hr, err = rl.send(ctx, c); err == nil {
			break
		}
		if ctx.Err() != nil {
			rl.settle(c.Peer, cancel)
			return nil, err
		}
		if try == attempts {
			rl.settle(c.Peer, failure)
			return nil, err
		}
	}
	if hr.StatusCode == http.StatusOK {
		return &Reply{Header: hr.Header, rl: rl, ctx: ctx, peer: c.Peer, body: hr.Body}, nil
	}
	se := readStatus(c.Peer, hr)
	switch {
	case se.Code == http.StatusConflict:
		rl.skews.Add(1)
		rl.settle(c.Peer, success)
	case se.Code == http.StatusServiceUnavailable:
		rl.failed.Add(1)
		rl.settle(c.Peer, success)
	case se.Code >= 500:
		rl.settle(c.Peer, failure)
	default:
		rl.settle(c.Peer, success)
	}
	return nil, se
}

func (rl *Relay) send(ctx context.Context, c Call) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimRight(c.Peer, "/")+c.Path, bytes.NewReader(c.Body))
	if err != nil {
		return nil, err
	}
	if c.Header != nil {
		req.Header = c.Header.Clone()
	}
	req.Header.Set("Content-Type", "application/json")
	if c.Epoch != 0 {
		req.Header.Set(EpochHeader, strconv.FormatUint(c.Epoch, 10))
	}
	return rl.client.Do(req)
}

// readStatus reads a bounded slice of a non-200 answer (which also lets
// the connection be reused) and closes it.
func readStatus(peer string, hr *http.Response) *StatusError {
	defer hr.Body.Close()
	se := &StatusError{Peer: peer, Code: hr.StatusCode, Msg: hr.Status}
	var body struct {
		Error string `json:"error"`
	}
	if b, err := io.ReadAll(io.LimitReader(hr.Body, maxErrorBody)); err == nil && json.Unmarshal(b, &body) == nil && body.Error != "" {
		se.Msg = body.Error
	}
	if secs, err := strconv.Atoi(hr.Header.Get("Retry-After")); err == nil && secs > 0 {
		se.RetryAfter = time.Duration(secs) * time.Second
	}
	return se
}

// verdict is how one call settles its peer's breaker.
type verdict int

const (
	success verdict = iota
	failure
	cancel
)

func (rl *Relay) settle(peer string, v verdict) {
	switch v {
	case success:
		rl.breakers.Success(peer)
	case failure:
		rl.failed.Add(1)
		rl.breakers.Failure(peer, time.Now())
	default:
		rl.breakers.Cancel(peer)
	}
}

// Guard admits an inbound call only when its epoch tag equals cur, the
// epoch this replica serves. On a mismatch it counts one skew, echoes cur
// in the reply's EpochHeader and returns the error the caller answers 409
// with; what names the call in that error. A nil Relay — a replica outside
// any fleet — guards the same way without counting.
func (rl *Relay) Guard(w http.ResponseWriter, r *http.Request, cur uint64, what string) error {
	tag := r.Header.Get(EpochHeader)
	if got, err := strconv.ParseUint(tag, 10, 64); err == nil && got == cur {
		return nil
	}
	if rl != nil {
		rl.skews.Add(1)
	}
	w.Header().Set(EpochHeader, strconv.FormatUint(cur, 10))
	return fmt.Errorf("ring epoch mismatch: %s tagged %q, serving epoch %d", what, tag, cur)
}

// Reply is a 200 answer whose body the caller still holds.
type Reply struct {
	Header http.Header
	rl     *Relay
	ctx    context.Context
	peer   string
	body   io.ReadCloser
}

// Read reads the whole body, closes it and settles the breaker: Success
// when accept (nil accepts anything) takes the bytes, Failure when the
// body is torn, oversized or refused by accept.
func (r *Reply) Read(accept func([]byte) error) ([]byte, error) {
	defer r.body.Close()
	b, err := io.ReadAll(io.LimitReader(r.body, r.rl.maxBody+1))
	if err != nil {
		r.rl.settle(r.peer, r.readVerdict())
		return nil, err
	}
	if int64(len(b)) > r.rl.maxBody {
		err = fmt.Errorf("relay: %s: body over %d bytes", r.peer, r.rl.maxBody)
	} else if accept != nil {
		err = accept(b)
	}
	if err != nil {
		r.rl.settle(r.peer, failure)
		return nil, err
	}
	r.rl.settle(r.peer, success)
	return b, nil
}

// Stream copies the body to w, closes it and settles the breaker: Success
// on a complete copy, Failure when the peer's half broke or overran the
// body cap, Cancel when w stopped taking bytes.
func (r *Reply) Stream(w io.Writer) error {
	defer r.body.Close()
	src := &readErrTracker{r: io.LimitReader(r.body, r.rl.maxBody+1)}
	n, err := io.Copy(w, src)
	switch {
	case err == nil && n > r.rl.maxBody:
		err = fmt.Errorf("relay: %s: body over %d bytes", r.peer, r.rl.maxBody)
		r.rl.settle(r.peer, failure)
	case err == nil:
		r.rl.settle(r.peer, success)
	case src.err != nil:
		r.rl.settle(r.peer, r.readVerdict())
	default:
		r.rl.settle(r.peer, cancel)
	}
	return err
}

// readVerdict attributes a failed body read: to our own side when the
// caller's ctx has ended, to the peer otherwise.
func (r *Reply) readVerdict() verdict {
	if r.ctx.Err() != nil {
		return cancel
	}
	return failure
}

// readErrTracker remembers whether a copy failure came from the read side,
// so a stream can tell a torn peer body from its own writer giving up.
type readErrTracker struct {
	r   io.Reader
	err error
}

func (t *readErrTracker) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err != nil && err != io.EOF {
		t.err = err
	}
	return n, err
}
