package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// startTimeout bounds how long a daemon may take to become healthy,
// and stopTimeout how long it may take to drain and exit.
const (
	startTimeout = 60 * time.Second
	stopTimeout  = 60 * time.Second
)

// daemon is one running snserved process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan struct{}
	err    error // the process's exit status, valid once exited closes
	stderr bytes.Buffer
}

// startDaemon launches bin with args (which must include -addr
// 127.0.0.1:0) and waits until /v1/healthz answers. It returns the time
// from launch to the first healthy answer: the daemon's start-up cost,
// including any WAL recovery.
func startDaemon(bin string, args ...string) (*daemon, time.Duration, error) {
	addr := make(chan string, 1)
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	d.cmd.Stdout = &addrWatch{found: addr}
	d.cmd.Stderr = &d.stderr
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.NewTimer(startTimeout)
	defer deadline.Stop()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, 0, fmt.Errorf("snserved exited before listening: %v\n%s", d.err, d.tail())
	case <-deadline.C:
		d.kill()
		return nil, 0, errors.New("snserved did not report its address in time")
	}
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{}}
	defer probe.CloseIdleConnections()
	for {
		resp, err := probe.Get(d.base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("snserved exited before healthy: %v\n%s", d.err, d.tail())
		case <-deadline.C:
			d.kill()
			return nil, 0, errors.New("snserved did not become healthy in time")
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// wait waits for the daemon to exit on its own and returns its exit
// status; past stopTimeout it kills the process.
func (d *daemon) wait() error {
	select {
	case <-d.exited:
	case <-time.After(stopTimeout):
		d.kill()
		return errors.New("snserved did not exit in time")
	}
	if d.err != nil {
		return fmt.Errorf("snserved: %v\n%s", d.err, d.tail())
	}
	return nil
}

// stop asks the daemon to drain and exit (SIGTERM) and waits for it.
// Calling it on an exited daemon returns the exit status.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
	}
	return d.wait()
}

// kill ends the process without a drain and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// addrWatch is the daemon's standard output: it reports the address of
// the "listening on" banner once and discards everything else.
type addrWatch struct {
	line  []byte
	found chan<- string
}

func (w *addrWatch) Write(p []byte) (int, error) {
	if w.found == nil {
		return len(p), nil
	}
	w.line = append(w.line, p...)
	for {
		i := bytes.IndexByte(w.line, '\n')
		if i < 0 {
			return len(p), nil
		}
		l := string(w.line[:i])
		w.line = w.line[i+1:]
		if _, rest, ok := strings.Cut(l, "listening on "); ok {
			w.found <- strings.Fields(rest)[0]
			w.found, w.line = nil, nil
			return len(p), nil
		}
	}
}

// tail returns the end of the daemon's standard error for failure
// messages; call it only once the process has exited.
func (d *daemon) tail() []byte {
	b := d.stderr.Bytes()
	return b[max(0, len(b)-4<<10):]
}
