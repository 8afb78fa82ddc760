package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"

	"oneport/internal/platform"
	"oneport/internal/service/relay"
)

// sweepLocalHeader marks a shard as a ring fill from another worker: the
// receiver must execute it locally and never forward again, so a
// misconfigured fleet cannot relay a job in circles.
const sweepLocalHeader = "X-Sweep-Local"

// Fleet routes worker job-cache fills through the scheduling service's
// consistent ring, so overlapping sweeps across a fleet of workers share
// one logical job cache: a job whose content key is owned by another
// worker is filled from that worker (which computes at most once and
// caches) instead of being recomputed on every machine. All callbacks
// resolve against the service's live ring state, so a membership swap
// re-routes sweep fills the same instant it re-routes /schedule relays.
// Every field is required.
type Fleet struct {
	// Owner resolves a job content key to its owning worker under the
	// current epoch (the service's Server.RingOwner).
	Owner func(sum [sha256.Size]byte) (owner string, isSelf bool, epoch uint64, ok bool)
	// Epoch reports the membership epoch this worker is serving
	// (Server.RingEpoch); inbound fills tagged differently are rejected.
	Epoch func() uint64
	// Relay carries outbound fills and counts inbound epoch skews: the
	// service's Server.Relay, so ring fills and /schedule relays share one
	// peer client, one set of circuit breakers and one skew count.
	Relay *relay.Relay
}

// fill asks the key's owning worker to run one job, adopting its result.
// ok=false for any reason — no fleet, we own the key, a call the relay
// refused or failed, an owner-side job error — degrades to local compute.
func (f *Fleet) fill(ctx context.Context, key [sha256.Size]byte, job Job, pl *platform.Platform) (Result, bool) {
	if f == nil {
		return Result{}, false
	}
	owner, isSelf, epoch, active := f.Owner(key)
	if !active || isSelf {
		return Result{}, false
	}
	body, err := json.Marshal(&Shard{Platform: pl, Jobs: []Job{job}})
	if err != nil {
		return Result{}, false
	}
	h := http.Header{}
	h.Set(sweepLocalHeader, "1")
	rep, err := f.Relay.Do(ctx, relay.Call{Peer: owner, Path: "/sweep/run", Body: body, Epoch: epoch, Header: h})
	if err != nil {
		return Result{}, false
	}
	var out *ShardResult
	if _, err := rep.Read(func(b []byte) (err error) {
		out, err = decodeResults(b, 1)
		return err
	}); err != nil {
		return Result{}, false
	}
	res := out.Results[0]
	if res.Err != "" {
		// the job itself failed on the owner; recompute locally so the
		// error (or a transient fix) is diagnosed here, and never cache it
		return Result{}, false
	}
	res.Job = job // rebind to the requesting job's identity (ID differs across sweeps)
	return res, true
}

// guard applies the relay's epoch guard to an inbound ring fill. A worker
// without a fleet serves epoch 0, so any tagged fill reaching it is skew.
func (f *Fleet) guard(w http.ResponseWriter, r *http.Request) error {
	var rl *relay.Relay
	cur := uint64(0)
	if f != nil {
		rl, cur = f.Relay, f.Epoch()
	}
	return rl.Guard(w, r, cur, "fill")
}
