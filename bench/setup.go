package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// setupRounds is how many set-ups each point of a run times.
const setupRounds = 5

// setupTimes collects a workload's set-up times. A set-up takes a few
// milliseconds (kernel, server starts) or half a second (journal
// recovery), so it lands wholly inside or wholly outside one of the
// stretches in which neighbours slow this host's memory-bound work by up
// to 2x (see loadgen.go); back-to-back set-ups share their stretch. So a
// workload times its set-up at several points spread over the run, rounds
// times at each point. Round i counts the fastest of the i-th times of all
// points, the way every other time here is best-of, and setup_s is the
// median of the rounds.
type setupTimes struct {
	what   string
	rounds int
	points [][]time.Duration
}

// point times rounds set-ups back to back with fn and records them as one
// point of the run.
func (st *setupTimes) point(fn func() (time.Duration, error)) error {
	pt := make([]time.Duration, 0, st.rounds)
	for len(pt) < st.rounds {
		d, err := fn()
		if err != nil {
			return err
		}
		pt = append(pt, d)
	}
	st.points = append(st.points, pt)
	return nil
}

// setup records setup_s from st and notes the range of its times.
func (h *harness) setup(st *setupTimes) {
	rounds := make([]float64, st.rounds)
	var all []float64
	for i := range rounds {
		best := st.points[0][i]
		for _, pt := range st.points {
			best = min(best, pt[i])
			all = append(all, pt[i].Seconds())
		}
		rounds[i] = best.Seconds()
	}
	h.set("setup_s", median(rounds), "s")
	h.notef("setup_s: %d %s at %d points of the run: fastest %.4f s, median %.4f s, slowest %.4f s; median of %d rounds' fastest %.4f s",
		len(all), st.what, len(st.points), slices.Min(all), median(all), slices.Max(all), st.rounds, median(rounds))
}

// copyDir copies the regular files of directory src into dst. It syncs
// each copy, so that writing it back does not compete with the measured
// server's fsyncs later.
func copyDir(dst, src string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(dst, e.Name()), filepath.Join(src, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}
