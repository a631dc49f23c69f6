package main

import (
	"os"
	"os/exec"
	"slices"
	"testing"
	"time"
)

func TestParseProcStat(t *testing.T) {
	// A command name may hold spaces and parentheses; fields count from the
	// last ')'.
	line := "4242 (tmux: (srv) 1) S 17 4200 4200 0 -1 4194560 900 0 3 0 250 75 0 0 20 0 5 0 123456 1000000 200 18446744073709551615"
	st, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	want := procStat{state: 'S', ppid: 17, pgrp: 4200, utime: 250, stime: 75}
	if st != want {
		t.Errorf("parsed %+v, want %+v", st, want)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 2 3", "1 (x) S a 3 0 0 0 0 0 0 0 0 1 2 3"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := []byte("Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t  100 kB\n")
	kb, err := parseVmHWM(status)
	if err != nil || kb != 20480 {
		t.Errorf("parseVmHWM = %d, %v; want 20480", kb, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tkthread\n")); err == nil {
		t.Error("status without VmHWM parsed")
	}
	if _, err := parseVmHWM([]byte("VmHWM:\t12 MB\n")); err == nil {
		t.Error("VmHWM in another unit parsed")
	}
}

func TestReadersOnThisProcess(t *testing.T) {
	self := []int{os.Getpid()}
	before, err := cpuSeconds(self)
	if err != nil {
		t.Fatal(err)
	}
	// Burn well over one clock tick.
	for start := time.Now(); time.Since(start) < 60*time.Millisecond; {
	}
	after, err := cpuSeconds(self)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Errorf("CPU time did not advance over a 60 ms spin: %v then %v", before, after)
	}
	rss, err := peakRSSMB(self)
	if err != nil || rss < 1 {
		t.Errorf("peak RSS %v MB, %v; want at least 1 MB", rss, err)
	}
	if _, err := cpuSeconds([]int{-1}); err == nil {
		t.Error("CPU time of pid -1 read")
	}
}

func TestDescendantsAndGroup(t *testing.T) {
	cmd := exec.Command("sleep", "30")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot start sleep: %v", err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	kids, err := descendants(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(kids, cmd.Process.Pid) {
		t.Errorf("descendants %v lack child %d", kids, cmd.Process.Pid)
	}
	self, err := readProcStat(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	group, err := groupMembers(self.pgrp)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(group, cmd.Process.Pid) || !slices.Contains(group, os.Getpid()) {
		t.Errorf("group %d members %v lack this process or its child", self.pgrp, group)
	}
	// Killed but not yet reaped, the child is a zombie: still listed in
	// /proc, no longer running.
	cmd.Process.Kill()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := readProcStat(cmd.Process.Pid)
		if err == nil && st.state == 'Z' {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("child never became a zombie: %+v, %v", st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	group, err = groupMembers(self.pgrp)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(group, cmd.Process.Pid) {
		t.Errorf("zombie %d counted as running", cmd.Process.Pid)
	}
}
