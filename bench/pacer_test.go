package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on, and then by the sleep plus a fixed
// wake-up delay, the way a real timer fires a little late.
type fakeClock struct {
	now     time.Time
	wakeLag time.Duration
	slept   []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.now = c.now.Add(d + c.wakeLag)
}

func TestPacerDueTimesAndLateness(t *testing.T) {
	epoch := time.Unix(1000, 0)
	clock := &fakeClock{now: epoch, wakeLag: 300 * time.Microsecond}
	p := pacer{start: epoch, offset: 5 * time.Millisecond, period: 20 * time.Millisecond, now: clock.Now, sleep: clock.Sleep}

	// Frame 0: the stream is idle, sleeps to the due time, wakes 0.3 ms late.
	due, late, idle := p.wait(0)
	if want := epoch.Add(5 * time.Millisecond); !due.Equal(want) || !idle || late != 300*time.Microsecond {
		t.Errorf("frame 0: due %v late %v idle %v", due.Sub(epoch), late, idle)
	}
	if len(clock.slept) != 1 || clock.slept[0] != 5*time.Millisecond {
		t.Errorf("frame 0 slept %v, want one 5 ms sleep", clock.slept)
	}

	// The reply takes 4 ms; frame 1 is due at 25 ms and the stream idles again.
	clock.now = clock.now.Add(4 * time.Millisecond)
	due, late, idle = p.wait(1)
	if want := epoch.Add(25 * time.Millisecond); !due.Equal(want) || !idle || late != 300*time.Microsecond {
		t.Errorf("frame 1: due %v late %v idle %v", due.Sub(epoch), late, idle)
	}

	// The reply to frame 1 stalls for 50 ms. Frames 2 and 3 (due at 45 and
	// 65 ms) are overdue when the stream comes free: they go out at once,
	// keep their due times — so their latency includes the stall — and say
	// nothing about the generator's own lateness.
	clock.now = epoch.Add(75 * time.Millisecond)
	sleeps := len(clock.slept)
	for i, wantDue := range map[int]time.Duration{2: 45 * time.Millisecond, 3: 65 * time.Millisecond} {
		due, late, idle = p.wait(i)
		if !due.Equal(epoch.Add(wantDue)) || idle || late != 0 {
			t.Errorf("frame %d: due %v late %v idle %v, want due %v and not idle", i, due.Sub(epoch), late, idle, wantDue)
		}
		if lat := clock.now.Sub(due); lat != 75*time.Millisecond-wantDue {
			t.Errorf("frame %d would be charged %v before it is even sent", i, lat)
		}
	}
	if len(clock.slept) != sleeps {
		t.Errorf("an overdue frame slept: %v", clock.slept[sleeps:])
	}

	// Caught up: frame 4 is due at 85 ms, 10 ms ahead.
	due, _, idle = p.wait(4)
	if !due.Equal(epoch.Add(85*time.Millisecond)) || !idle || clock.slept[len(clock.slept)-1] != 10*time.Millisecond {
		t.Errorf("frame 4: due %v idle %v slept %v", due.Sub(epoch), idle, clock.slept[len(clock.slept)-1])
	}
}
