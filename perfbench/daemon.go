package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one memsd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string
	pid  string
	done chan struct{}
	err  error
}

// freeAddr returns a loopback address with a port nothing listens on now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon spawns memsd on a free loopback port with its log, the access
// log included, sent to the null device: the daemon still formats every
// record, but no disk I/O enters the measurement. The daemon stays in the
// benchmark's process group, which run.py kills as a whole if the benchmark
// itself dies first.
func startDaemon(bin string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	defer devnull.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = devnull, devnull
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start memsd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, pid: strconv.Itoa(cmd.Process.Pid), done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// waitReady polls /healthz until it answers 200, the daemon exits or the
// timeout passes. It polls every 100 µs with preciseSleep: a daemon is ready
// in a few milliseconds, which the runtime's millisecond-late timers would
// round up by a fifth.
func (d *daemon) waitReady(timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("memsd exited before it was ready: %v", d.err)
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("memsd not ready after %v", timeout)
		}
		preciseSleep(100 * time.Microsecond)
	}
}

// stop asks the daemon to drain and exit, kills it if it has not exited
// after memsd's own ten-second grace, and waits until it has ended.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(12 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// spawnReady starts a daemon and waits until it serves, retrying when the
// chosen port was taken between probing and binding.
func spawnReady(bin string, args ...string) (*daemon, error) {
	var errs []error
	for range 3 {
		d, err := startDaemon(bin, args...)
		if err != nil {
			return nil, err
		}
		if err = d.waitReady(20 * time.Second); err == nil {
			return d, nil
		}
		d.stop()
		errs = append(errs, err)
	}
	return nil, errors.Join(errs...)
}

// scrape reads the daemon's /metricsz exposition and returns every family's
// value summed over its label sets.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metricsz: status %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

// parseExposition sums the samples of a Prometheus text exposition by
// metric name: labelled series add up under their family name, and
// comment lines are skipped.
func parseExposition(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sep := strings.LastIndexByte(line, ' ')
		if sep < 0 {
			return nil, fmt.Errorf("/metricsz: malformed line %q", line)
		}
		name := line[:sep]
		if brace := strings.IndexByte(name, '{'); brace >= 0 {
			name = name[:brace]
		}
		v, err := strconv.ParseFloat(line[sep+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metricsz: %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}
