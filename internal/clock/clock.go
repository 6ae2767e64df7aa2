// Package clock abstracts time so that block production and peer timers
// can run on something other than the wall clock.
package clock

import "time"

// Clock supplies the current time and timer primitives.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that fires after the duration.
	After(d time.Duration) <-chan time.Time
}

// Real is the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }
