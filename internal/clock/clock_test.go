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
