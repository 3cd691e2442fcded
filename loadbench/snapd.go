package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"snap1/internal/engine"
)

// daemon is one running snapd child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited closes
}

// snapdFlags are the command-line flags the benchmark starts snapd
// with: the knowledge base and the address, with every serving knob at
// its default.
func snapdFlags(addr, kbPath string, writes bool) []string {
	args := []string{"-addr", addr, "-kb", kbPath}
	if writes {
		args = append(args, "-writes")
	}
	return args
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startSnapd launches snapd and waits until /v1/health first answers
// 200. It returns the time from launch to that answer.
func startSnapd(bin, kbPath string, writes bool, gomaxprocs int, logPath string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, snapdFlags(addr, kbPath, writes)...)
	cmd.Env = append(withoutEnv(os.Environ(), "GOMAXPROCS"), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start snapd: %w", err)
	}
	d := &daemon{cmd: cmd, addr: addr, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()

	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := client.Get("http://" + addr + "/v1/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("snapd exited before serving: %v (log %s)", d.err, logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("snapd not healthy after 60s")
		}
	}
}

func withoutEnv(env []string, key string) []string {
	out := env[:0:0]
	for _, kv := range env {
		if !strings.HasPrefix(kv, key+"=") {
			out = append(out, kv)
		}
	}
	return out
}

// stop asks snapd to drain and exit, kills it if it has not exited
// within 15s, and returns once the process is gone.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// stats fetches /v1/stats.
func (d *daemon) stats(ctx context.Context) (engine.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.addr+"/v1/stats", nil)
	if err != nil {
		return engine.Stats{}, err
	}
	resp, err := (&http.Client{Timeout: requestTimeout}).Do(req)
	if err != nil {
		return engine.Stats{}, fmt.Errorf("GET /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	var sr engine.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return engine.Stats{}, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return sr.Stats, nil
}

// cpuSeconds reads the process's user plus system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line, in clock ticks.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	var ticks float64
	for _, v := range f[11:13] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc stat: %w", err)
		}
		ticks += n
	}
	return ticks / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times; Linux fixes it at
// 100 on every architecture Go supports.
const clockTicks = 100

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// peakRSSMB reads VmHWM, in MiB, from a /proc status file.
func peakRSSMB(statusPath string) (float64, error) {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not in /proc status")
}
