package clock

import (
	"testing"
	"time"
)

func TestRealClockNow(t *testing.T) {
	c := Real{}
	a := c.Now()
	b := time.Now()
	if b.Sub(a) > time.Second {
		t.Fatal("Real.Now far from wall time")
	}
}

func TestRealClockSleep(t *testing.T) {
	c := Real{}
	start := time.Now()
	c.Sleep(10 * time.Millisecond)
	if d := time.Since(start); d < 9*time.Millisecond {
		t.Fatalf("slept %v", d)
	}
}
