package main

import (
	"testing"
	"time"
)

// fakeClock advances only when a request takes time or the generator
// sleeps.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

// A request that stalls delays the requests due behind it, and their
// latencies count that wait from their due times.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	const ms = time.Millisecond
	took := []time.Duration{35 * ms, ms, ms, ms, ms}
	out, lateMax := openLoop(clk, start, 10*ms, len(took), func(i int) (bool, []byte) {
		clk.now = clk.now.Add(took[i])
		return true, nil
	})
	// Due at 0, 10, 20, 30, 40; sent at 0, 35, 36, 37, 40.
	wantLat := []time.Duration{35 * ms, 26 * ms, 17 * ms, 8 * ms, ms}
	wantSend := []time.Duration{0, 35 * ms, 36 * ms, 37 * ms, 40 * ms}
	for i, s := range out {
		if s.latency != wantLat[i] || s.send.Sub(start) != wantSend[i] || !s.ok || s.i != i {
			t.Errorf("request %d: sent at %v, latency %v; want %v, %v", i, s.send.Sub(start), s.latency, wantSend[i], wantLat[i])
		}
	}
	if lateMax != 25*ms {
		t.Errorf("lateMax = %v, want 25ms", lateMax)
	}
}
