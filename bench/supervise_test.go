package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The test binary doubles as the two tiny processes the supervisor
// tests need: a stand-in server that answers /readyz, and a stand-in
// harness that spawns one through the real supervisor and then waits
// to be signalled.
const helperEnv = "BENCH_TEST_HELPER"

func TestMain(m *testing.M) {
	switch os.Getenv(helperEnv) {
	case "server", "stubborn-server":
		helperServer(os.Getenv(helperEnv) == "stubborn-server")
	case "harness":
		helperHarness()
	}
	os.Exit(m.Run())
}

func helperServer(ignoreTerm bool) {
	if ignoreTerm {
		signal.Ignore(syscall.SIGTERM)
	}
	addr := ""
	for i, a := range os.Args {
		if a == "-addr" && i+1 < len(os.Args) {
			addr = os.Args[i+1]
		}
	}
	http.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ready") })
	fmt.Fprintln(os.Stderr, http.ListenAndServe(addr, nil))
	os.Exit(1)
}

func helperHarness() {
	sup := newSupervisor()
	watchExits(sup, time.Minute)
	os.Setenv(helperEnv, "server")
	c, err := sup.spawn("server", os.Args[0])
	if err != nil {
		fmt.Println("error", err)
		os.Exit(1)
	}
	dir, err := sup.tempDir(os.TempDir())
	if err != nil {
		fmt.Println("error", err)
		sup.exit(1)
	}
	fmt.Println("child", c.pid, c.port, dir)
	select {}
}

// gone reports whether pid no longer runs: it is unknown to the
// kernel, or a zombie waiting for whoever inherited it to reap it.
func gone(pid int) bool {
	if processGone(pid) {
		return true
	}
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return true
	}
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	return strings.HasPrefix(strings.TrimSpace(rest), "Z")
}

func waitGone(t *testing.T, pid int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !gone(pid) {
		if time.Now().After(deadline) {
			syscall.Kill(pid, syscall.SIGKILL)
			t.Fatalf("child %d survived its harness", pid)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func testSupervisor(t *testing.T, mode string) (*supervisor, *child) {
	t.Helper()
	sup := newSupervisor()
	t.Setenv(helperEnv, mode)
	c, err := sup.spawn(mode, os.Args[0])
	if err != nil {
		sup.stopAll()
		t.Fatal(err)
	}
	return sup, c
}

func TestStopAllLeavesNothing(t *testing.T) {
	sup, a := testSupervisor(t, "server")
	b, err := sup.spawn("second", os.Args[0])
	if err != nil {
		sup.stopAll()
		t.Fatal(err)
	}
	if cpu, rss, err := procStat(a.pid); err != nil || rss <= 0 || cpu < 0 {
		t.Errorf("procStat of a live child: cpu %v rss %d err %v", cpu, rss, err)
	}
	dir, err := sup.tempDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if left := sup.stopAll(); left != 0 {
		t.Fatalf("children_left=%d", left)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("scratch directory survived stopAll: %v", err)
	}
	for _, c := range []*child{a, b} {
		if !processGone(c.pid) || !portRefuses(c.port) {
			t.Errorf("child %d still there after stopAll", c.pid)
		}
	}
	if left := sup.stopAll(); left != 0 {
		t.Errorf("second stopAll: children_left=%d", left)
	}
	if _, err := sup.spawn("late", os.Args[0]); err == nil {
		t.Error("spawn after stopAll must refuse")
	}
}

func TestStopEscalatesToKill(t *testing.T) {
	sup, c := testSupervisor(t, "stubborn-server")
	start := time.Now()
	if err := sup.stop(c, false); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < termGrace {
		t.Errorf("a child that ignores SIGTERM was gone after %v, before the grace period", d)
	}
	if !processGone(c.pid) {
		t.Error("child survived SIGKILL")
	}
	if left := sup.stopAll(); left != 0 {
		t.Errorf("children_left=%d", left)
	}
}

func TestSpawnReportsEarlyExit(t *testing.T) {
	sup := newSupervisor()
	defer sup.stopAll()
	if _, err := sup.spawn("false", "/bin/false"); err == nil || !strings.Contains(err.Error(), "exited before ready") {
		t.Errorf("spawn of a process that exits at once: %v", err)
	}
}

// startHarness runs the stand-in harness and returns it with the pid
// of the child it supervises and its scratch directory.
func startHarness(t *testing.T) (*exec.Cmd, int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), helperEnv+"=harness")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line, _ := bufio.NewReader(out).ReadString('\n')
	var pid, port int
	var dir string
	if _, err := fmt.Sscanf(line, "child %d %d %s", &pid, &port, &dir); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("harness said %q", line)
	}
	t.Cleanup(func() { os.RemoveAll(dir) }) // a killed harness cannot
	return cmd, pid, dir
}

func TestNoChildSurvivesSIGTERM(t *testing.T) {
	cmd, pid, dir := startHarness(t)
	cmd.Process.Signal(syscall.SIGTERM)
	cmd.Wait()
	// The harness stops its children before it exits, so no wait here.
	if !gone(pid) {
		syscall.Kill(pid, syscall.SIGKILL)
		t.Fatalf("child %d outlived a harness stopped by SIGTERM", pid)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s outlived a harness stopped by SIGTERM: %v", dir, err)
	}
}

func TestNoChildSurvivesSIGKILL(t *testing.T) {
	cmd, pid, _ := startHarness(t)
	cmd.Process.Kill()
	cmd.Wait()
	// Nothing in the harness ran: the kernel delivers the children's
	// parent-death signal, asynchronously.
	waitGone(t, pid)
}
