package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"oneport/internal/service"
)

// cleanup tracks every child process and temp dir the harness creates so
// that run removes all of them on every exit path: normal return, error,
// panic, and SIGINT/SIGTERM.
type cleanup struct {
	mu    sync.Mutex
	procs map[*server]struct{}
	dirs  []string
}

func newCleanup() *cleanup { return &cleanup{procs: map[*server]struct{}{}} }

// tempDir creates a directory under root that run removes.
func (c *cleanup) tempDir(root, pattern string) (string, error) {
	dir, err := os.MkdirTemp(root, pattern)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.dirs = append(c.dirs, dir)
	c.mu.Unlock()
	return dir, nil
}

// run kills every live child, waits for each to exit, then removes the
// temp dirs. It is safe to call more than once.
func (c *cleanup) run() {
	c.mu.Lock()
	procs := make([]*server, 0, len(c.procs))
	for s := range c.procs {
		procs = append(procs, s)
	}
	dirs := c.dirs
	c.dirs = nil
	c.mu.Unlock()
	for _, s := range procs {
		s.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// server is one schedserve child process.
type server struct {
	c    *cleanup
	cmd  *exec.Cmd
	addr string // host:port
	url  string
	done chan struct{} // closed once the process has been waited for
	logs *tailBuffer
}

// startServer execs schedserve on a free loopback port with args and waits
// until GET /readyz answers 200. It returns the server and the time from
// exec to ready.
func (c *cleanup) startServer(ctx context.Context, bin string, args ...string) (*server, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		s := &server{c: c, addr: addr, url: "http://" + addr, done: make(chan struct{}), logs: &tailBuffer{max: 8 << 10}}
		s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		s.cmd.Stdout, s.cmd.Stderr = s.logs, s.logs
		// the child dies with the harness even if the harness is killed
		// before its own cleanup runs
		s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		began := time.Now()
		if err := s.cmd.Start(); err != nil {
			return nil, 0, fmt.Errorf("start schedserve: %w", err)
		}
		c.mu.Lock()
		c.procs[s] = struct{}{}
		c.mu.Unlock()
		go func() {
			s.cmd.Wait()
			close(s.done)
		}()
		if err := s.waitReady(ctx); err != nil {
			lastErr = err
			s.kill()
			continue // most likely the port was taken between freePort and exec
		}
		return s, time.Since(began), nil
	}
	return nil, 0, lastErr
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// probeClient polls /readyz on fresh connections, so a probe never reuses
// a connection to a killed predecessor.
var probeClient = &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

func (s *server) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("schedserve exited before ready: %s", s.logs.String())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := probeClient.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		// time.Sleep would round up to a millisecond (see openLoop), a
		// quarter of a server start
		ts := syscall.NsecToTimespec(int64(200 * time.Microsecond))
		syscall.Nanosleep(&ts, nil)
	}
	return fmt.Errorf("schedserve not ready after 60s: %s", s.logs.String())
}

// kill sends SIGKILL and waits until the process has exited.
func (s *server) kill() {
	if s.cmd.Process != nil {
		s.cmd.Process.Kill()
		<-s.done
	}
	s.c.mu.Lock()
	delete(s.c.procs, s)
	s.c.mu.Unlock()
}

// peakRSSMB reads the child's high-water resident set size (VmHWM).
func (s *server) peakRSSMB() (float64, error) { return vmHWM(s.cmd.Process.Pid) }

// vmHWM returns the VmHWM of process pid in MiB.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// stats fetches the server's /stats counters.
func (s *server) stats() (service.Stats, error) {
	var st service.Stats
	resp, err := probeClient.Get(s.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats answered %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// tailBuffer keeps the last max bytes written to it, for the error message
// of a child that fails.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf bytes.Buffer
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf.Write(p)
	if over := t.buf.Len() - t.max; over > 0 {
		t.buf.Next(over)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(t.buf.String())
}
