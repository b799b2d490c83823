package main

// Child supervision.  Every server the benchmark boots goes through
// spawn and leaves through stopAll; nothing else starts or signals a
// process.  The first attempt at this benchmark was rejected for
// leaving nsserve/nscoord running, so the rules here are deliberately
// redundant: own process group + SIGTERM/SIGKILL/Wait on every exit
// path the harness controls, and PR_SET_PDEATHSIG for the one it does
// not (SIGKILL of the harness itself).

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	readyDeadline = 20 * time.Second
	termGrace     = 2 * time.Second
)

// probeClient polls /readyz; no keep-alive, so it never holds a
// connection to a server that is about to be stopped.
var probeClient = &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

type child struct {
	name   string
	cmd    *exec.Cmd
	pid    int
	port   int
	stderr *bytes.Buffer
	exited chan struct{} // closed once Wait has returned
}

func (c *child) url() string { return "http://127.0.0.1:" + strconv.Itoa(c.port) }

type supervisor struct {
	mu       sync.Mutex
	children []*child
	dirs     []string // scratch directories, removed once the children are gone
	stopped  bool
	starts   chan func() // run on the locked OS thread
}

// newSupervisor starts the spawning thread.  PR_SET_PDEATHSIG fires
// when the *thread* that forked the child exits, not the process, so
// every cmd.Start runs on one goroutine that stays locked to its OS
// thread for the life of the harness.
func newSupervisor() *supervisor {
	s := &supervisor{starts: make(chan func())}
	go func() {
		runtime.LockOSThread()
		for f := range s.starts {
			f()
		}
	}()
	return s
}

// freePort asks the kernel for an unused port by listening on :0 and
// closing.  Another process could take it before the child binds; the
// readiness wait then fails and the run aborts, it does not hang.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// tempDir makes a directory under parent for what children write.
// stopAll removes it, so a run ended by a signal or by the watchdog
// leaves no data directory behind either.
func (s *supervisor) tempDir(parent string) (string, error) {
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.dirs = append(s.dirs, dir)
	s.mu.Unlock()
	return dir, nil
}

// spawn execs bin directly (no shell, no `go run`) in its own process
// group, with -addr on a free port appended to args, and returns once
// GET /readyz answers 200.
func (s *supervisor) spawn(name, bin string, args ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("spawn %s: %w", name, err)
	}
	c := &child{name: name, port: port, stderr: new(bytes.Buffer), exited: make(chan struct{})}
	c.cmd = exec.Command(bin, append(args, "-addr", "127.0.0.1:"+strconv.Itoa(port))...)
	c.cmd.Stderr = c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}

	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil, fmt.Errorf("spawn %s: supervisor already stopped", name)
	}
	started := make(chan error, 1)
	s.starts <- func() { started <- c.cmd.Start() }
	if err := <-started; err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("spawn %s: %w", name, err)
	}
	c.pid = c.cmd.Process.Pid
	s.children = append(s.children, c)
	s.mu.Unlock()
	go func() {
		_ = c.cmd.Wait() // the exit status of a server we signalled says nothing
		close(c.exited)
	}()

	deadline := time.Now().Add(readyDeadline)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return nil, fmt.Errorf("spawn %s: exited before ready: %s", name, strings.TrimSpace(c.stderr.String()))
		default:
		}
		resp, err := probeClient.Get(c.url() + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, fmt.Errorf("spawn %s: not ready after %s", name, readyDeadline)
}

// stop ends one child and forgets it: SIGTERM to its group, a grace
// period, SIGKILL, always the Wait, then proof that it is gone — the
// pid answers ESRCH and the port refuses connections.  kill skips the
// grace (the crash test of durable_rw).  A child is signalled only
// while it is unreaped, so a recycled pid is never hit.
func (s *supervisor) stop(c *child, kill bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopLocked(c, kill)
}

func (s *supervisor) stopLocked(c *child, kill bool) error {
	idx := -1
	for i, x := range s.children {
		if x == c {
			idx = i
		}
	}
	if idx < 0 {
		return nil // already stopped and verified
	}
	select {
	case <-c.exited:
	default:
		if !kill {
			_ = syscall.Kill(-c.pid, syscall.SIGTERM) // ESRCH: it exited on its own
			select {
			case <-c.exited:
			case <-time.After(termGrace):
			}
		}
		_ = syscall.Kill(-c.pid, syscall.SIGKILL) // sweeps the rest of the group too
		<-c.exited
	}
	if !processGone(c.pid) || !portRefuses(c.port) {
		return fmt.Errorf("child %s pid %d port %d still alive", c.name, c.pid, c.port)
	}
	s.children = append(s.children[:idx], s.children[idx+1:]...)
	return nil
}

// stopAll ends every child still running, removes the scratch
// directories and returns how many children could not be shown gone.
// It is idempotent and safe to call from the signal handler, the
// watchdog and the deferred exit path at once; after it, spawn refuses.
func (s *supervisor) stopAll() (left int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
	for _, c := range s.children {
		select {
		case <-c.exited:
		default:
			_ = syscall.Kill(-c.pid, syscall.SIGTERM) // start every drain before waiting on any
		}
	}
	for _, c := range append([]*child(nil), s.children...) {
		if err := s.stopLocked(c, false); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			left++
		}
	}
	for _, dir := range s.dirs {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
	s.dirs = nil
	return left
}

// exit stops every child, says how many are left and ends the process.
func (s *supervisor) exit(code int) {
	left := s.stopAll()
	fmt.Fprintf(os.Stderr, "children_left=%d\n", left)
	if left != 0 && code == 0 {
		code = 1
	}
	os.Exit(code)
}

// watchExits covers the ways out that do not pass through main's
// return: SIGINT/SIGTERM/SIGHUP, the death of whoever started the
// harness (`go run`, when the driver kills it) and a hard deadline.
// Each stops the children before the process exits.  SIGKILL of the
// harness itself is covered by the children's PR_SET_PDEATHSIG.
func watchExits(s *supervisor, limit time.Duration) {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	parent := os.Getppid()
	go func() {
		tick := time.NewTicker(200 * time.Millisecond)
		deadline := time.After(limit)
		for {
			select {
			case sig := <-sigs:
				fmt.Fprintln(os.Stderr, "bench: stopping on", sig)
				s.exit(130)
			case <-deadline:
				fmt.Fprintln(os.Stderr, "bench: watchdog deadline passed")
				s.exit(3)
			case <-tick.C:
				if os.Getppid() != parent {
					fmt.Fprintln(os.Stderr, "bench: parent process is gone")
					s.exit(4)
				}
			}
		}
	}()
}

func processGone(pid int) bool {
	return errors.Is(syscall.Kill(pid, 0), syscall.ESRCH)
}

func portRefuses(port int) bool {
	conn, err := net.DialTimeout("tcp", "127.0.0.1:"+strconv.Itoa(port), time.Second)
	if err != nil {
		return true
	}
	conn.Close()
	return false
}

// procStat reads what /proc/<pid>/stat says about a live child: CPU
// time consumed (user+system) and resident set size.
func procStat(pid int) (cpu time.Duration, rssBytes int64, err error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, 0, err
	}
	// The comm field may contain spaces; fields are counted after the
	// closing parenthesis.  utime, stime and rss are fields 14, 15, 24.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 22 {
		return 0, 0, fmt.Errorf("short /proc stat for pid %d", pid)
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	rss, _ := strconv.ParseInt(f[21], 10, 64)
	const clockTick = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return time.Duration(utime+stime) * time.Second / clockTick, rss * int64(os.Getpagesize()), nil
}
