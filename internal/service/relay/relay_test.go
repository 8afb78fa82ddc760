package relay

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"oneport/internal/service/breaker"
)

// TestVerdictTable runs one call per row of the package's verdict table.
// Each call is the half-open probe of its peer's breaker, which makes the
// settlement observable: the slot stays taken until the call settles, a
// Success closes the breaker, a Failure re-opens it, and a Cancel leaves
// it half-open with the slot free for the next probe.
func TestVerdictTable(t *testing.T) {
	status := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(code)
		}
	}
	body := func(b string) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, b) }
	}
	torn := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", "100")
		io.WriteString(w, `{"torn":`)
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}
	drop := func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) }
	// hang and hangBody read the request to its end first, so the server
	// notices the caller hanging up and ends the request context
	hang := func(_ http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}
	hangBody := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{"slow":`)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}
	read := func(rep *Reply) error {
		_, err := rep.Read(func(b []byte) error {
			if !json.Valid(b) {
				return errors.New("not JSON")
			}
			return nil
		})
		return err
	}
	stream := func(w io.Writer) func(*Reply) error {
		return func(rep *Reply) error { return rep.Stream(w) }
	}

	for _, tc := range []struct {
		name    string
		open    bool // breaker open before the call: nothing may be sent
		peer    http.HandlerFunc
		ctx     time.Duration      // > 0: the caller's ctx ends after this long
		finish  func(*Reply) error // finishes a 200 answer
		maxBody int64
		want    breaker.State // Closed: Success, Open: Failure, HalfOpen: Cancel
		sends   int64
		skews   int64
		failed  int64
		code    int // the *StatusError code, for non-200 answers
	}{
		{name: "breaker open", open: true, peer: body(`{}`), want: breaker.Open},
		{name: "transport error, caller's ctx done", peer: hang, ctx: 100 * time.Millisecond, want: breaker.HalfOpen, sends: 1},
		{name: "transport error, caller's ctx live", peer: drop, want: breaker.Open, sends: 2, failed: 1},
		{name: "409 epoch skew", peer: status(http.StatusConflict), want: breaker.Closed, sends: 1, skews: 1, code: 409},
		{name: "503 shed", peer: status(http.StatusServiceUnavailable), want: breaker.Closed, sends: 1, failed: 1, code: 503},
		{name: "other 5xx", peer: status(http.StatusBadGateway), want: breaker.Open, sends: 1, failed: 1, code: 502},
		{name: "400", peer: status(http.StatusBadRequest), want: breaker.Closed, sends: 1, code: 400},
		{name: "404", peer: status(http.StatusNotFound), want: breaker.Closed, sends: 1, code: 404},
		{name: "200, body torn", peer: torn, finish: read, want: breaker.Open, sends: 1, failed: 1},
		{name: "200, body oversized", peer: body(`{"big":true}`), maxBody: 8, finish: read, want: breaker.Open, sends: 1, failed: 1},
		{name: "200, body undecodable", peer: body(`not json`), finish: read, want: breaker.Open, sends: 1, failed: 1},
		{name: "200, body cut by the caller's ctx", peer: hangBody, ctx: 100 * time.Millisecond, finish: read, want: breaker.HalfOpen, sends: 1},
		{name: "200 streamed, body torn", peer: torn, finish: stream(io.Discard), want: breaker.Open, sends: 1, failed: 1},
		{name: "200 streamed, body oversized", peer: body(`{"big":true}`), maxBody: 8, finish: stream(io.Discard), want: breaker.Open, sends: 1, failed: 1},
		{name: "200 streamed, our client stops reading", peer: body(`{}`), finish: stream(stoppedWriter{}), want: breaker.HalfOpen, sends: 1},
		{name: "200, body good", peer: body(`{"ok":true}`), finish: read, want: breaker.Closed, sends: 1},
		{name: "200 streamed, body good", peer: body(`{"ok":true}`), finish: stream(io.Discard), want: breaker.Closed, sends: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sends atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				sends.Add(1)
				if got := r.Header.Get(EpochHeader); got != "3" {
					t.Errorf("call tagged epoch %q, want 3", got)
				}
				tc.peer(w, r)
			}))
			defer ts.Close()
			set := breaker.NewSet(breaker.Config{Jitter: -1, BaseDelay: time.Hour, MaxDelay: time.Hour})
			rl := New(nil, set)
			if tc.maxBody > 0 {
				rl.maxBody = tc.maxBody
			}
			opened := time.Now()
			if !tc.open {
				opened = opened.Add(-2 * time.Hour) // the window has elapsed: the call is the half-open probe
			}
			set.Failure(ts.URL, opened)
			ctx := context.Background()
			if tc.ctx > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.ctx)
				defer cancel()
			}

			rep, err := rl.Do(ctx, Call{Peer: ts.URL, Path: "/relay", Body: []byte(`{}`), Epoch: 3})
			if tc.finish != nil {
				if err != nil {
					t.Fatalf("Do: %v, want a 200 reply", err)
				}
				if set.Allow(ts.URL, time.Now()) {
					t.Fatal("a second probe was admitted before the reply settled")
				}
				if ferr := tc.finish(rep); (ferr != nil) == (tc.want == breaker.Closed) {
					t.Fatalf("finishing the reply returned %v", ferr)
				}
			} else if err == nil {
				t.Fatal("Do returned a reply, want an error")
			}
			var se *StatusError
			if got := errors.As(err, &se); got != (tc.code != 0) || got && (se.Code != tc.code || se.RetryAfter != 3*time.Second) {
				t.Fatalf("Do error %v, want a status error with code %d", err, tc.code)
			}
			if tc.open && !errors.Is(err, errOpen) {
				t.Fatalf("Do error %v, want errOpen", err)
			}

			if got := set.Get(ts.URL).CurrentState(time.Now()); got != tc.want {
				t.Fatalf("breaker %v after the call, want %v", got, tc.want)
			}
			if tc.want == breaker.HalfOpen && !set.Allow(ts.URL, time.Now()) {
				t.Fatal("the canceled call never released the probe slot")
			}
			c := rl.Counters()
			if sends.Load() != tc.sends || c.Skews != tc.skews || c.Failed != tc.failed {
				t.Fatalf("sends=%d skews=%d failed=%d, want %d/%d/%d",
					sends.Load(), c.Skews, c.Failed, tc.sends, tc.skews, tc.failed)
			}
		})
	}
}

// stoppedWriter is a client that has stopped reading.
type stoppedWriter struct{}

func (stoppedWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestCallHeaders: an untagged call carries no epoch, and extra headers
// reach the peer next to the JSON content type.
func TestCallHeaders(t *testing.T) {
	var got http.Header
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Clone()
		io.WriteString(w, `{}`)
	}))
	defer ts.Close()
	rl := New(nil, breaker.NewSet(breaker.Config{}))
	h := http.Header{}
	h.Set("X-API-Key", "acme")
	rep, err := rl.Do(context.Background(), Call{Peer: ts.URL + "/", Path: "/relay", Body: []byte(`{}`), Header: h})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Read(nil); err != nil {
		t.Fatal(err)
	}
	if got.Get(EpochHeader) != "" || got.Get("X-API-Key") != "acme" || got.Get("Content-Type") != "application/json" {
		t.Fatalf("peer saw headers %v", got)
	}
}

// TestGuard: an inbound call passes only with a tag equal to the serving
// epoch; any other tag is one counted skew with the serving epoch echoed,
// and a nil relay guards without counting.
func TestGuard(t *testing.T) {
	rl := New(nil, breaker.NewSet(breaker.Config{}))
	for _, tc := range []struct {
		relay *Relay
		tag   string
		ok    bool
		skews int64
	}{
		{rl, "4", true, 0},
		{rl, "5", false, 1},
		{rl, "", false, 2},
		{rl, "four", false, 3},
		{nil, "5", false, 3},
	} {
		r := httptest.NewRequest(http.MethodPost, "/relay", nil)
		if tc.tag != "" {
			r.Header.Set(EpochHeader, tc.tag)
		}
		w := httptest.NewRecorder()
		err := tc.relay.Guard(w, r, 4, "relay")
		if (err == nil) != tc.ok {
			t.Fatalf("tag %q: guard error %v", tc.tag, err)
		}
		if echo := w.Header().Get(EpochHeader); !tc.ok && echo != "4" {
			t.Fatalf("tag %q: echoed epoch %q, want 4", tc.tag, echo)
		}
		if got := rl.Counters().Skews; got != tc.skews {
			t.Fatalf("tag %q: %d skews counted, want %d", tc.tag, got, tc.skews)
		}
	}
}
