package session

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"oneport/internal/graph"
	"oneport/internal/platform"
	"oneport/internal/sched"
	"oneport/internal/service/journal"
	"oneport/internal/testbeds"
)

// journaled builds a Manager over a journal store on dir. SyncNone models a
// crash that keeps the page cache — which sharing the dir across Managers
// does — and keeps the tests fast; the sync path is covered in the journal
// package and the -race service suite.
func journaled(t *testing.T, dir string, compact int64) *Manager {
	t.Helper()
	st, err := journal.Open(journal.Config{Dir: dir, Policy: journal.SyncNone, CompactBytes: compact})
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(Config{Journal: st})
}

// testDeltas is a small chain of graph/platform mutations exercised by
// every recovery test, ending on a platform delta so replay must handle
// both kinds.
func testDeltas(g *graph.Graph) []Delta {
	return []Delta{
		{Graph: graph.Delta{{Op: "set_weight", Task: iptr(g.NumNodes() / 2), Weight: fptr(11)}}},
		{Graph: graph.Delta{
			{Op: "add_task", Weight: fptr(6)},
			{Op: "add_edge", From: iptr(0), To: iptr(g.NumNodes()), Data: fptr(2)},
		}},
		{Platform: platform.Delta{{Op: "add_proc", Cycle: fptr(8), Link: fptr(1)}}},
	}
}

// applyAll mirrors a delta chain onto plain graph/platform values — the
// cold-oracle state a recovered session must reproduce.
func applyAll(t *testing.T, g *graph.Graph, pl *platform.Platform, deltas []Delta) (*graph.Graph, *platform.Platform) {
	t.Helper()
	for i, d := range deltas {
		if len(d.Graph) > 0 {
			ng, _, err := d.Graph.Apply(g)
			if err != nil {
				t.Fatalf("delta %d: %v", i, err)
			}
			g = ng
		}
		if len(d.Platform) > 0 {
			npl, err := d.Platform.Apply(pl)
			if err != nil {
				t.Fatalf("delta %d: %v", i, err)
			}
			pl = npl
		}
	}
	return g, pl
}

// TestRecoverByteIdentical is the tentpole pin: open + deltas, abandon the
// Manager (a crash keeps no in-memory state), rebuild from the same journal
// dir, and the recovered session must continue exactly where the dead one
// stopped — the next delta's schedule byte-identical to a cold run on the
// equivalent final state.
func TestRecoverByteIdentical(t *testing.T) {
	for _, heur := range []string{"heft", "dls"} { // replay and full-recompute paths
		t.Run(heur, func(t *testing.T) {
			dir := t.TempDir()
			m1 := journaled(t, dir, 0)
			g, pl := testbeds.LU(8, 10), platform.Paper()
			id, _, err := m1.Open(context.Background(), openParams(g, pl, heur))
			if err != nil {
				t.Fatal(err)
			}
			deltas := testDeltas(g)
			for i, d := range deltas {
				if _, err := m1.Delta(context.Background(), id, d); err != nil {
					t.Fatalf("delta %d: %v", i, err)
				}
			}
			// crash: m1 is simply never used again

			m2 := journaled(t, dir, 0)
			recovered, failed, err := m2.Recover(context.Background())
			if err != nil || recovered != 1 || failed != 0 {
				t.Fatalf("Recover = %d, %d, %v", recovered, failed, err)
			}

			// the 4th delta, applied to the RECOVERED session, must match a
			// cold schedule of the full final state
			extra := Delta{Graph: graph.Delta{{Op: "set_weight", Task: iptr(0), Weight: fptr(9)}}}
			info, err := m2.Delta(context.Background(), id, extra)
			if err != nil {
				t.Fatalf("post-recovery delta: %v", err)
			}
			if info.Deltas != len(deltas)+1 {
				t.Errorf("Deltas = %d, want %d (lifetime count must survive recovery)", info.Deltas, len(deltas)+1)
			}
			fg, fpl := applyAll(t, g, pl, append(append([]Delta{}, deltas...), extra))
			sameJSON(t, coldSchedule(t, heur, fg, fpl, sched.OnePort), info.Schedule)

			if st := m2.StatsSnapshot(); st.Recovered != 1 || st.Open != 1 {
				t.Errorf("stats = %+v, want 1 recovered / 1 open", st)
			}
		})
	}
}

// TestRecoverTornTail: a crash mid-append loses exactly the torn suffix.
// The journal's acked prefix recovers, and the client's normal retry of the
// un-acked delta lands the session back on the oracle state.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	m1 := journaled(t, dir, 0)
	g, pl := testbeds.LU(8, 10), platform.Paper()
	id, _, err := m1.Open(context.Background(), openParams(g, pl, "heft"))
	if err != nil {
		t.Fatal(err)
	}
	deltas := testDeltas(g)[:2]
	for _, d := range deltas {
		if _, err := m1.Delta(context.Background(), id, d); err != nil {
			t.Fatal(err)
		}
	}
	// tear the last record's checksum: delta 1 was mid-write at the crash
	path := filepath.Join(dir, id+".wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := journaled(t, dir, 0)
	if recovered, failed, err := m2.Recover(context.Background()); err != nil || recovered != 1 || failed != 0 {
		t.Fatalf("Recover = %d, %d, %v", recovered, failed, err)
	}
	info, err := m2.Delta(context.Background(), id, deltas[1])
	if err != nil {
		t.Fatalf("re-apply after torn tail: %v", err)
	}
	fg, fpl := applyAll(t, g, pl, deltas)
	sameJSON(t, coldSchedule(t, "heft", fg, fpl, sched.OnePort), info.Schedule)
}

// TestRecoverAfterCompaction: sessions whose journal folded into a snapshot
// record recover from the snapshot exactly as from the raw log.
func TestRecoverAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	m1 := journaled(t, dir, 1) // compact after every delta
	g, pl := testbeds.LU(8, 10), platform.Paper()
	id, _, err := m1.Open(context.Background(), openParams(g, pl, "heft"))
	if err != nil {
		t.Fatal(err)
	}
	deltas := testDeltas(g)
	for _, d := range deltas {
		if _, err := m1.Delta(context.Background(), id, d); err != nil {
			t.Fatal(err)
		}
	}
	if st := m1.cfg.Journal.StatsSnapshot(); st.Compactions == 0 {
		t.Fatal("no compaction ran with a 1-byte threshold")
	}

	m2 := journaled(t, dir, 1)
	if recovered, failed, err := m2.Recover(context.Background()); err != nil || recovered != 1 || failed != 0 {
		t.Fatalf("Recover = %d, %d, %v", recovered, failed, err)
	}
	extra := Delta{Graph: graph.Delta{{Op: "set_weight", Task: iptr(1), Weight: fptr(7)}}}
	info, err := m2.Delta(context.Background(), id, extra)
	if err != nil {
		t.Fatal(err)
	}
	if info.Deltas != len(deltas)+1 {
		t.Errorf("Deltas = %d, want %d (count must ride the snapshot record)", info.Deltas, len(deltas)+1)
	}
	fg, fpl := applyAll(t, g, pl, append(append([]Delta{}, deltas...), extra))
	sameJSON(t, coldSchedule(t, "heft", fg, fpl, sched.OnePort), info.Schedule)
}

// TestRecoverBadJournalKept: a journal that cannot replay (unknown
// heuristic) is counted as failed and LEFT on disk — evidence, not trash.
func TestRecoverBadJournalKept(t *testing.T) {
	dir := t.TempDir()
	m1 := journaled(t, dir, 0)
	g, pl := testbeds.LU(8, 10), platform.Paper()
	id, _, err := m1.Open(context.Background(), openParams(g, pl, "heft"))
	if err != nil {
		t.Fatal(err)
	}
	// rewrite the open record with a semantically-bad snapshot (framing valid)
	path := filepath.Join(dir, id+".wal")
	st, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := st.Recover()
	if err != nil || len(reps) != 1 {
		t.Fatalf("pre-corrupt recover: %v, %d replays", err, len(reps))
	}
	var snap Snapshot
	if err := json.Unmarshal(reps[0].Open, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Heuristic = "no-such-heuristic"
	payload, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	reps[0].Log.Close()
	l, err := st.Create(id, payload)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	m2 := journaled(t, dir, 0)
	recovered, failed, err := m2.Recover(context.Background())
	if err != nil || recovered != 0 || failed != 1 {
		t.Fatalf("Recover = %d, %d, %v", recovered, failed, err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("failed journal was deleted: %v", err)
	}
	if st := m2.StatsSnapshot(); st.RecoveryFailed != 1 || st.Open != 0 {
		t.Errorf("stats = %+v, want 1 recovery_failed / 0 open", st)
	}
}

// TestJournalCleanupOnCloseAndEvict: closing or evicting a session removes
// its journal — recovery must never resurrect a session the client ended.
func TestJournalCleanupOnCloseAndEvict(t *testing.T) {
	dir := t.TempDir()
	st, err := journal.Open(journal.Config{Dir: dir, Policy: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	m := NewManager(Config{Journal: st, TTL: time.Minute, Now: func() time.Time { return now }})
	g, pl := testbeds.ForkJoin(5, 10), platform.Paper()
	id1, _, err := m.Open(context.Background(), openParams(g, pl, "heft"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(id1); err != nil {
		t.Fatal(err)
	}
	id2, _, err := m.Open(context.Background(), openParams(g, pl, "heft"))
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Hour) // the next open sweeps id2 — and its journal
	if _, _, err := m.Open(context.Background(), openParams(g, pl, "heft")); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{id1, id2} {
		if _, err := os.Stat(filepath.Join(dir, id+".wal")); !os.IsNotExist(err) {
			t.Errorf("journal %s.wal survived close/evict (stat err %v)", id, err)
		}
	}
}

// TestExportImportHandoff moves a session between two Managers the way a
// drain does and pins the receiver's state to the sender's byte-for-byte —
// including the receiver journaling the import so it survives a crash there.
func TestExportImportHandoff(t *testing.T) {
	a := NewManager(Config{})
	bdir := t.TempDir()
	b := journaled(t, bdir, 0)
	g, pl := testbeds.LU(8, 10), platform.Paper()
	id, _, err := a.Open(context.Background(), openParams(g, pl, "heft"))
	if err != nil {
		t.Fatal(err)
	}
	deltas := testDeltas(g)[:2]
	var last *RunInfo
	for _, d := range deltas {
		if last, err = a.Delta(context.Background(), id, d); err != nil {
			t.Fatal(err)
		}
	}

	sent := false
	err = a.Handoff(id, func(snap *Snapshot) error {
		sent = true
		// serialize through JSON like the wire does
		raw, err := json.Marshal(snap)
		if err != nil {
			return err
		}
		var back Snapshot
		if err := json.Unmarshal(raw, &back); err != nil {
			return err
		}
		gotID, info, err := b.Import(context.Background(), &back)
		if err != nil {
			return err
		}
		if gotID != id {
			return fmt.Errorf("import renamed the session: %s", gotID)
		}
		sameJSON(t, last.Schedule, info.Schedule) // receiver cold == sender warm
		if info.Deltas != len(deltas) {
			return fmt.Errorf("delta count %d did not survive the move", info.Deltas)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sent {
		t.Fatal("send never ran")
	}
	// the sender no longer holds it; the receiver serves deltas on it
	if _, err := a.Delta(context.Background(), id, deltas[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("sender still serves the session: %v", err)
	}
	extra := Delta{Graph: graph.Delta{{Op: "set_weight", Task: iptr(0), Weight: fptr(5)}}}
	if _, err := b.Delta(context.Background(), id, extra); err != nil {
		t.Fatalf("receiver rejects the imported session: %v", err)
	}
	// a crash on the receiver still recovers the moved session
	b2 := journaled(t, bdir, 0)
	if recovered, _, err := b2.Recover(context.Background()); err != nil || recovered != 1 {
		t.Fatalf("receiver-side recovery = %d, %v", recovered, err)
	}
	if sa, sb := a.StatsSnapshot(), b.StatsSnapshot(); sa.HandedOff != 1 || sb.Imported != 1 {
		t.Errorf("handoff counters: sender %+v receiver %+v", sa, sb)
	}
}

// TestHandoffFailedSendKeepsSession: a send that errors leaves the session
// live and serving on the sender — nothing closes on a failed handoff.
func TestHandoffFailedSendKeepsSession(t *testing.T) {
	m := NewManager(Config{})
	g, pl := testbeds.ForkJoin(5, 10), platform.Paper()
	id, _, err := m.Open(context.Background(), openParams(g, pl, "heft"))
	if err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("peer down")
	if err := m.Handoff(id, func(*Snapshot) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("Handoff = %v", err)
	}
	d := Delta{Graph: graph.Delta{{Op: "set_weight", Task: iptr(0), Weight: fptr(5)}}}
	if _, err := m.Delta(context.Background(), id, d); err != nil {
		t.Fatalf("session dead after failed handoff: %v", err)
	}
	if st := m.StatsSnapshot(); st.HandedOff != 0 || st.Open != 1 {
		t.Errorf("stats = %+v, want 0 handed_off / 1 open", st)
	}
}

// TestImportRejectsBadIDs: import ids must be exactly the 32-hex grammar
// newID emits — anything else could escape the journal directory.
func TestImportRejectsBadIDs(t *testing.T) {
	m := NewManager(Config{})
	g, pl := testbeds.ForkJoin(5, 10), platform.Paper()
	snap := &Snapshot{Graph: g, Platform: pl, Heuristic: "heft", Model: "oneport"}
	for _, id := range []string{
		"", "short", "../../../../etc/passwd00112233",
		"ABCDEF00112233445566778899aabbcc", // upper hex
		"00112233445566778899aabbccddee!!",
	} {
		snap.ID = id
		if _, _, err := m.Import(context.Background(), snap); err == nil {
			t.Errorf("Import accepted id %q", id)
		}
	}
}

// TestImportFullTable: unlike recovery, an import respects MaxSessions.
func TestImportFullTable(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1})
	g, pl := testbeds.ForkJoin(5, 10), platform.Paper()
	if _, _, err := m.Open(context.Background(), openParams(g, pl, "heft")); err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{ID: "00112233445566778899aabbccddeeff",
		Graph: g, Platform: pl, Heuristic: "heft", Model: "oneport"}
	if _, _, err := m.Import(context.Background(), snap); !errors.Is(err, ErrFull) {
		t.Fatalf("Import on a full table = %v, want ErrFull", err)
	}
}

// TestRecoverPastCapacity: recovery admits every journaled session even
// past MaxSessions — they were all live and acked before the crash.
func TestRecoverPastCapacity(t *testing.T) {
	dir := t.TempDir()
	m1 := journaled(t, dir, 0)
	g, pl := testbeds.ForkJoin(5, 10), platform.Paper()
	for i := 0; i < 3; i++ {
		if _, _, err := m1.Open(context.Background(), openParams(g, pl, "heft")); err != nil {
			t.Fatal(err)
		}
	}
	st, err := journal.Open(journal.Config{Dir: dir, Policy: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Config{Journal: st, MaxSessions: 1})
	if recovered, failed, err := m2.Recover(context.Background()); err != nil || recovered != 3 || failed != 0 {
		t.Fatalf("Recover = %d, %d, %v", recovered, failed, err)
	}
	if st := m2.StatsSnapshot(); st.Open != 3 {
		t.Errorf("open = %d, want 3 (recovery ignores MaxSessions)", st.Open)
	}
}
