package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"oneport/internal/platform"
	"oneport/internal/service/breaker"
)

// sweepLocalHeader marks a shard as a ring fill from another worker: the
// receiver must execute it locally and never forward again, so a
// misconfigured fleet cannot relay a job in circles.
const sweepLocalHeader = "X-Sweep-Local"

// fleetEpochHeader tags a ring fill with the membership epoch the sender
// routed by; the owner serves it only under the same epoch (409
// otherwise), mirroring the scheduling service's relay invariant.
const fleetEpochHeader = "X-Ring-Epoch"

// fleetFillTimeout bounds one ring fill end to end. A fill can legally
// take as long as the job itself (the owner computes on its own miss), but
// a hung owner must not stall a sweep lane indefinitely — past the bound
// the lane computes locally.
const fleetFillTimeout = 2 * time.Minute

// Fleet routes worker job-cache fills through the scheduling service's
// consistent ring, so overlapping sweeps across a fleet of workers share
// one logical job cache: a job whose content key is owned by another
// worker is filled from that worker (which computes at most once and
// caches) instead of being recomputed on every machine. All callbacks
// resolve against the service's live ring state, so a membership swap
// re-routes sweep fills the same instant it re-routes /schedule relays.
type Fleet struct {
	// Self is this worker's advertised base URL.
	Self string
	// Owner resolves a job content key to its owning worker under the
	// current epoch (the service's Server.RingOwner).
	Owner func(sum [sha256.Size]byte) (owner string, isSelf bool, epoch uint64, ok bool)
	// Epoch reports the membership epoch this worker is serving
	// (Server.RingEpoch); inbound fills tagged differently are rejected.
	Epoch func() uint64
	// Breakers is the per-peer circuit-breaker set shared with the
	// scheduling service's relay path, so both paths agree on peer
	// health. nil disables breaker gating (every fill is attempted).
	Breakers *breaker.Set
	// Client defaults to a client bounded by fleetFillTimeout.
	Client *http.Client
}

// fleetState is the installed Fleet; nil means fills stay local.
var fleetState atomic.Pointer[Fleet]

// EnableFleet installs (or with nil, removes) the fleet routing for this
// process's worker cache. cmd/schedserve calls it when a worker runs with
// ring peers configured.
func EnableFleet(f *Fleet) { fleetState.Store(f) }

func (f *Fleet) client() *http.Client {
	if f.Client != nil {
		return f.Client
	}
	return &http.Client{Timeout: fleetFillTimeout}
}

// currentEpoch is the epoch inbound fills are validated against: the
// installed fleet's, or 0 when this worker has none (so any tagged fill
// arriving at a fleet-less worker is rejected as skew).
func currentEpoch() uint64 {
	if f := fleetState.Load(); f != nil && f.Epoch != nil {
		return f.Epoch()
	}
	return 0
}

// fleetFill asks the key's owning worker to run one job, adopting its
// result. ok=false for any reason — no fleet, we own the key, breaker
// open, transport failure, epoch skew, owner-side job error — degrades to
// local compute. Breaker attribution mirrors the scheduling service:
// transport failures, owner 5xx other than a 503 shed, and undecodable
// bodies are the owner's fault; epoch skew, a 503 shed and owner 4xx
// prove it alive.
func fleetFill(key [sha256.Size]byte, job Job, pl *platform.Platform) (Result, bool) {
	f := fleetState.Load()
	if f == nil || f.Owner == nil {
		return Result{}, false
	}
	owner, isSelf, epoch, active := f.Owner(key)
	if !active || isSelf {
		return Result{}, false
	}
	if f.Breakers != nil && !f.Breakers.Allow(owner, time.Now()) {
		return Result{}, false
	}
	success := func() {
		if f.Breakers != nil {
			f.Breakers.Success(owner)
		}
	}
	failure := func() {
		if f.Breakers != nil {
			f.Breakers.Failure(owner, time.Now())
		}
	}
	body, err := json.Marshal(&Shard{Platform: pl, Jobs: []Job{job}})
	if err != nil {
		success() // our own encoding bug is not the owner's fault
		return Result{}, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), fleetFillTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/sweep/run", bytes.NewReader(body))
	if err != nil {
		success()
		return Result{}, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(sweepLocalHeader, "1")
	req.Header.Set(fleetEpochHeader, strconv.FormatUint(epoch, 10))
	resp, err := f.client().Do(req)
	if err != nil {
		failure()
		return Result{}, false
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusConflict:
		success() // epoch skew: alive, just mid-membership-push
		return Result{}, false
	case resp.StatusCode == http.StatusServiceUnavailable:
		success() // shedding load: overload must never masquerade as peer death
		return Result{}, false
	case resp.StatusCode >= 500:
		failure()
		return Result{}, false
	case resp.StatusCode != http.StatusOK:
		success() // 4xx: our shard's fault, not the owner's health
		return Result{}, false
	}
	var out ShardResult
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxShardRespBytes)).Decode(&out); err != nil || len(out.Results) != 1 {
		failure() // a 200 that does not decode to one result is an owner fault
		return Result{}, false
	}
	success()
	res := out.Results[0]
	if res.Err != "" {
		// the job itself failed on the owner; recompute locally so the
		// error (or a transient fix) is diagnosed here, and never cache it
		return Result{}, false
	}
	res.Job = job // rebind to the requesting job's identity (ID differs across sweeps)
	return res, true
}
