package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one empserve child process listening on a loopback port.
type serverProc struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:<port>
	stateDir string // "" unless started with -state-dir
	log      *tailBuffer
	exited   chan struct{}
	waitErr  error
}

// readyTimeout bounds how long a fresh empserve may take to answer /v1/readyz.
const readyTimeout = 60 * time.Second

// startServer launches empserve with default flags apart from a free
// loopback address and -quiet (plus -state-dir when stateDir is set) and
// waits for the first 200 from /v1/readyz.
func startServer(ctx context.Context, bin, stateDir string) (backend, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-quiet"}
	if stateDir != "" {
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return nil, fmt.Errorf("creating state dir: %w", err)
		}
		args = append(args, "-state-dir", stateDir)
	}
	cmd := exec.Command(bin, args...)
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	tail := &tailBuffer{max: 16 << 10}
	cmd.Stdout, cmd.Stderr = tail, tail
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting empserve: %w", err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, stateDir: stateDir, log: tail, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitReady(ctx); err != nil {
		s.Stop()
		return nil, err
	}
	return s, nil
}

// waitReady polls /v1/readyz until it answers 200.
func (s *serverProc) waitReady(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("empserve exited before ready (%v): %s", s.waitErr, s.log.String())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := hc.Get(s.base + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("empserve not ready within %v: %s", readyTimeout, s.log.String())
}

// URL returns the server's base URL.
func (s *serverProc) URL() string { return s.base }

// Stop kills the process, waits for it to exit and removes its state dir.
// SIGKILL rather than SIGTERM: a graceful shutdown waits out a 15 s drain
// grace, and nothing the benchmark measures depends on it.
func (s *serverProc) Stop() {
	_ = s.cmd.Process.Kill() // fails only if the process already exited
	<-s.exited
	if s.stateDir != "" {
		_ = os.RemoveAll(s.stateDir) // best effort: the work dir is removed at exit too
	}
}

// PeakRSSMiB reads the process's resident-set high-water mark.
func (s *serverProc) PeakRSSMiB() (float64, error) { return peakRSSMiB(s.cmd.Process.Pid) }

// StateBytes sums the sizes of the files under the state dir.
func (s *serverProc) StateBytes() (int64, error) { return dirBytes(s.stateDir) }

// peakRSSMiB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir ("" is empty).
func dirBytes(dir string) (int64, error) {
	if dir == "" {
		return 0, nil
	}
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// freeLoopbackAddr asks the kernel for a free loopback port.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", err
	}
	return addr, nil
}

// tailBuffer keeps the last max bytes written to it, for error messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
	max int
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

// scrapeMetrics fetches /v1/metrics and returns its unlabelled and labelled
// samples by their full series name (e.g. `emp_solve_total` or
// `emp_http_requests_total{path="/solve",code="200"}`).
func scrapeMetrics(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
