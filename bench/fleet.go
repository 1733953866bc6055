package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// fleet is a running loopback mtmrd deployment: two key-range shards
// behind a fan-out coordinator. serve-mix boots the real binaries; the
// tests stand in httptest servers.
type fleet interface {
	// urls returns the coordinator's base URL first, then the shards'.
	urls() []string
	// stop shuts every instance down and waits until each has exited.
	stop() error
	// peakRSSMiB is the fleet's memory after stop: the sum of its
	// instances' peak resident sets.
	peakRSSMiB() float64
}

// bootFunc starts a fleet whose coordinator serves from the result store
// at coordStore with an LRU of cache entries, and returns once every
// instance answers /healthz.
type bootFunc func(ctx context.Context, dir, coordStore string, cache int) (fleet, error)

const (
	bootTimeout = 30 * time.Second
	stopTimeout = 10 * time.Second
)

// execFleet boots the fleet from the mtmrd binary at bin. Instance logs go
// to files in the run's scratch directory. Where chrt is installed the
// instances run under the SCHED_IDLE policy: the load generator shares the
// host with them, and a generator queued behind a computing instance for a
// CPU sends late (p99 lateness 2-6 ms without it, mostly under 1 ms with it).
// The instances still get every cycle the generator does not use.
func execFleet(bin string) bootFunc {
	return func(ctx context.Context, dir, coordStore string, cache int) (fleet, error) {
		ports, err := freePorts(3)
		if err != nil {
			return nil, err
		}
		addr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", ports[i]) }
		coord, shard0, shard1 := addr(0), addr(1), addr(2)
		instances := []struct {
			addr string
			args []string
		}{
			{coord, []string{"-fanout", "-peers", "http://" + shard0 + ",http://" + shard1, "-store", coordStore}},
			{shard0, []string{"-shard-index", "0", "-shard-count", "2", "-store", filepath.Join(dir, "shard0.store")}},
			{shard1, []string{"-shard-index", "1", "-shard-count", "2", "-store", filepath.Join(dir, "shard1.store")}},
		}
		f := &procFleet{}
		for i, in := range instances {
			f.addrs = append(f.addrs, "http://"+in.addr)
			args := append(in.args, "-addr", in.addr, "-cache", fmt.Sprint(cache), "-drain-timeout", "5s")
			if err := f.start(bin, args, filepath.Join(dir, fmt.Sprintf("mtmrd-%d.log", i))); err != nil {
				f.stop()
				return nil, err
			}
		}
		if err := f.waitHealthy(ctx); err != nil {
			f.stop()
			return nil, fmt.Errorf("%w (instance logs in %s)", err, dir)
		}
		return f, nil
	}
}

// refServerFunc starts the HTTP reference server (refclock.go) and returns
// its base URL and a function that stops it and waits until it has exited.
type refServerFunc func(ctx context.Context, dir string) (base string, stop func() error, err error)

// execRefServer runs the reference server as a process of its own, this
// binary in refserver mode, scheduled like the fleet's instances so that
// it meets the host as they do.
func execRefServer(ctx context.Context, dir string) (string, func() error, error) {
	self, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	ports, err := freePorts(1)
	if err != nil {
		return "", nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", ports[0])
	f := &procFleet{addrs: []string{"http://" + addr}}
	if err := f.start(self, []string{"refserver", addr}, filepath.Join(dir, "refserver.log")); err != nil {
		return "", nil, err
	}
	if err := f.waitHealthy(ctx); err != nil {
		f.stop()
		return "", nil, err
	}
	return f.addrs[0], f.stop, nil
}

// procFleet is a set of child processes: a fleet of mtmrd instances, or
// the reference server.
type procFleet struct {
	addrs   []string
	cmds    []*exec.Cmd
	exited  []chan struct{} // closed when the matching process has been waited for
	logs    []*os.File
	peakKiB int64 // summed over the stopped instances
}

func (f *procFleet) urls() []string { return f.addrs }

func (f *procFleet) peakRSSMiB() float64 { return float64(f.peakKiB) / 1024 }

func (f *procFleet) start(bin string, args []string, logPath string) error {
	log, err := os.Create(logPath)
	if err != nil {
		return err
	}
	cmd := exec.Command(bin, args...)
	if chrt, err := exec.LookPath("chrt"); err == nil {
		cmd = exec.Command(chrt, append([]string{"--idle", "0", bin}, args...)...)
	}
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return fmt.Errorf("starting %s: %w", bin, err)
	}
	done := make(chan struct{})
	go func() {
		// The exit status is not checked: an instance that exits early is
		// caught by the health wait, and one that dies mid-run by the
		// requests it fails.
		_ = cmd.Wait()
		close(done)
	}()
	f.cmds = append(f.cmds, cmd)
	f.exited = append(f.exited, done)
	f.logs = append(f.logs, log)
	return nil
}

// waitHealthy polls every instance's /healthz until all answer 200, an
// instance exits, or the boot timeout passes.
func (f *procFleet) waitHealthy(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(bootTimeout)
	for i, base := range f.addrs {
		for !healthy(ctx, client, base) {
			select {
			case <-f.exited[i]:
				return fmt.Errorf("%s exited during boot", base)
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not healthy after %v", base, bootTimeout)
			}
		}
	}
	return nil
}

func healthy(ctx context.Context, c *http.Client, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop sends SIGTERM to every instance (mtmrd drains and syncs its store),
// kills any that outlive the stop timeout, and waits for all of them.
func (f *procFleet) stop() error {
	for _, cmd := range f.cmds {
		cmd.Process.Signal(syscall.SIGTERM)
	}
	var errs []error
	timeout := time.After(stopTimeout)
	for i, done := range f.exited {
		select {
		case <-done:
		case <-timeout:
			f.cmds[i].Process.Kill()
			<-done
			errs = append(errs, fmt.Errorf("%s killed after %v", f.addrs[i], stopTimeout))
		}
		if ru, ok := f.cmds[i].ProcessState.SysUsage().(*syscall.Rusage); ok {
			f.peakKiB += ru.Maxrss // Linux reports KiB
		}
	}
	for _, l := range f.logs {
		l.Close()
	}
	f.cmds, f.exited, f.logs = nil, nil, nil
	return errors.Join(errs...)
}

// freePorts reserves n distinct loopback ports by listening on them, then
// releases them for the instances to bind.
func freePorts(n int) ([]int, error) {
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}
