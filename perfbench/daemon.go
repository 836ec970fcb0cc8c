package main

import (
	"bufio"
	"bytes"
	"encoding/json"
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

	"xtalk/internal/serve"
)

// daemon is an xtalkd child process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startDaemon launches xtalkd and waits for /readyz. It passes only
// -addr -device -budget -store -quiet: cache and tier sizes stay at their
// defaults, so a redesign of the memory tiers is measured rather than
// pinned by the benchmark.
func startDaemon(bin, store string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-addr", addr, "-device", "heavyhex:27", "-budget", "0", "-quiet"}
	if store != "" {
		args = append(args, "-store", store)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start xtalkd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			return nil, fmt.Errorf("xtalkd exited before ready: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("xtalkd not ready after 30s")
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain hangs.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// stats fetches /stats.
func (d *daemon) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := http.Get(d.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// peakRSSMB reads VmHWM, the peak resident set, of a process.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// client posts pre-encoded /compile bodies over at most conns kept-alive
// connections. It speaks just enough HTTP/1.1 for the daemon's replies,
// which always carry a Content-Length: a load generator that costs less
// CPU per request than the daemon leaves the daemon the machine, and its
// timings less of the generator's own scheduling noise.
type client struct {
	addr string
	idle chan *rawConn
	open chan struct{} // one token per open connection
}

type rawConn struct {
	c   net.Conn
	r   *bufio.Reader
	req []byte
}

func newClient(base string, conns int) *client {
	return &client{addr: strings.TrimPrefix(base, "http://"), idle: make(chan *rawConn, conns), open: make(chan struct{}, conns)}
}

// conn returns an idle connection, dials one while fewer than conns are
// open, and otherwise waits for one to come back.
func (c *client) conn() (*rawConn, error) {
	select {
	case rc := <-c.idle:
		return rc, nil
	default:
	}
	select {
	case rc := <-c.idle:
		return rc, nil
	case c.open <- struct{}{}:
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			<-c.open
			return nil, err
		}
		return &rawConn{c: nc, r: bufio.NewReaderSize(nc, 64<<10)}, nil
	}
}

func (c *client) drop(rc *rawConn) {
	rc.c.Close()
	<-c.open
}

// close closes every idle connection; callers return all connections
// before closing.
func (c *client) close() {
	for {
		select {
		case rc := <-c.idle:
			c.drop(rc)
		default:
			return
		}
	}
}

// post sends one body and returns the status, with the reply body in buf.
func (c *client) post(body []byte, buf *bytes.Buffer) (int, error) {
	rc, err := c.conn()
	if err != nil {
		return 0, err
	}
	rc.req = append(rc.req[:0], "POST /compile HTTP/1.1\r\nHost: xtalkd\r\nContent-Type: application/json\r\nContent-Length: "...)
	rc.req = strconv.AppendInt(rc.req, int64(len(body)), 10)
	rc.req = append(rc.req, "\r\n\r\n"...)
	rc.req = append(rc.req, body...)
	if _, err := rc.c.Write(rc.req); err != nil {
		c.drop(rc)
		return 0, err
	}
	status, n, err := readHead(rc.r)
	if err == nil {
		buf.Reset()
		_, err = io.CopyN(buf, rc.r, n)
	}
	if err != nil {
		c.drop(rc)
		return 0, err
	}
	c.idle <- rc
	return status, nil
}

// readHead reads a reply's status line and headers and returns the status
// and the body length.
func readHead(r *bufio.Reader) (int, int64, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return 0, 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, 0, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, 0, fmt.Errorf("malformed status line %q", line)
	}
	length := int64(-1)
	for {
		line, err = r.ReadSlice('\n')
		if err != nil {
			return 0, 0, err
		}
		h := bytes.TrimRight(line, "\r\n")
		if len(h) == 0 {
			break
		}
		if k, v, ok := bytes.Cut(h, []byte(":")); ok && strings.EqualFold(string(k), "Content-Length") {
			if length, err = strconv.ParseInt(string(bytes.TrimSpace(v)), 10, 64); err != nil {
				return 0, 0, fmt.Errorf("malformed Content-Length %q", v)
			}
		}
	}
	if length < 0 {
		return 0, 0, fmt.Errorf("reply without Content-Length")
	}
	return status, length, nil
}

// requestBody encodes the /compile request for an instance.
func requestBody(in instance) []byte {
	seed, day := int64(calSeed), in.Day
	b, err := json.Marshal(serve.CompileRequest{Source: in.Source, Device: in.Spec, Seed: &seed, Day: &day})
	if err != nil {
		panic(err) // a CompileRequest always marshals
	}
	return b
}
