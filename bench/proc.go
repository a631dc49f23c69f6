package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// procStat is the part of /proc/<pid>/stat the benchmark reads.
type procStat struct {
	state        byte // 'Z' is a zombie: dead, waiting to be reaped
	ppid, pgrp   int
	utime, stime uint64 // clock ticks
}

// parseProcStat parses one /proc/<pid>/stat line. The command name (field 2)
// is in parentheses and may itself hold spaces and parentheses, so the
// numeric fields are counted from the last ')'.
func parseProcStat(line string) (procStat, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return procStat{}, fmt.Errorf("proc stat: no command field in %q", line)
	}
	f := strings.Fields(line[i+1:])
	// f[0] is field 3 (state); ppid is field 4, pgrp 5, utime 14, stime 15.
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	st := procStat{state: f[0][0]}
	var err error
	if st.ppid, err = strconv.Atoi(f[1]); err != nil {
		return procStat{}, fmt.Errorf("proc stat: ppid: %w", err)
	}
	if st.pgrp, err = strconv.Atoi(f[2]); err != nil {
		return procStat{}, fmt.Errorf("proc stat: pgrp: %w", err)
	}
	if st.utime, err = strconv.ParseUint(f[11], 10, 64); err != nil {
		return procStat{}, fmt.Errorf("proc stat: utime: %w", err)
	}
	if st.stime, err = strconv.ParseUint(f[12], 10, 64); err != nil {
		return procStat{}, fmt.Errorf("proc stat: stime: %w", err)
	}
	return st, nil
}

func readProcStat(pid int) (procStat, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	return parseProcStat(string(b))
}

// clockTicksPerSecond is USER_HZ, the unit of utime and stime; Linux fixes
// it at 100 on every architecture Go runs on.
const clockTicksPerSecond = 100

// cpuSeconds sums user and system CPU time of the given processes.
func cpuSeconds(pids []int) (float64, error) {
	var ticks uint64
	for _, pid := range pids {
		st, err := readProcStat(pid)
		if err != nil {
			return 0, fmt.Errorf("cpu time of pid %d: %w", pid, err)
		}
		ticks += st.utime + st.stime
	}
	return float64(ticks) / clockTicksPerSecond, nil
}

// parseVmHWM extracts the resident-set high-water mark, in kB, from the
// text of /proc/<pid>/status.
func parseVmHWM(status []byte) (uint64, error) {
	for _, line := range bytes.Split(status, []byte{'\n'}) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseUint(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// peakRSSMB sums the resident-set high-water marks of the given processes.
func peakRSSMB(pids []int) (float64, error) {
	var kb uint64
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, fmt.Errorf("peak rss of pid %d: %w", pid, err)
		}
		v, err := parseVmHWM(b)
		if err != nil {
			return 0, fmt.Errorf("peak rss of pid %d: %w", pid, err)
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// resetPeakRSS restarts the high-water marks of the given processes (the
// kernel's clear_refs code 5), so that peakRSSMB afterwards reports the peak
// of what follows and not of set-up long finished.
func resetPeakRSS(pids []int) error {
	for _, pid := range pids {
		if err := os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0); err != nil {
			return err
		}
	}
	return nil
}

// eachProc calls fn for every live process it can read. Processes that exit
// between the directory listing and the read are skipped.
func eachProc(fn func(pid int, st procStat)) error {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return err
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		st, err := readProcStat(pid)
		if err != nil {
			continue
		}
		fn(pid, st)
	}
	return nil
}

// descendants returns root's live descendants (children, their children…).
func descendants(root int) ([]int, error) {
	children := map[int][]int{}
	if err := eachProc(func(pid int, st procStat) {
		children[st.ppid] = append(children[st.ppid], pid)
	}); err != nil {
		return nil, err
	}
	var out []int
	for queue := []int{root}; len(queue) > 0; queue = queue[1:] {
		kids := children[queue[0]]
		out = append(out, kids...)
		queue = append(queue, kids...)
	}
	return out, nil
}

// groupMembers returns the processes of process group pgrp that still run;
// a zombie holds no resources and is its parent's to reap.
func groupMembers(pgrp int) ([]int, error) {
	var out []int
	err := eachProc(func(pid int, st procStat) {
		if st.pgrp == pgrp && st.state != 'Z' {
			out = append(out, pid)
		}
	})
	return out, err
}
