package core

import (
	"errors"
	"sync"
)

// forEachShare runs fn over items on up to fanoutWorkers goroutines — the
// peer's fan-out primitive for Resync and receive rounds. Shares are
// mutually independent (each share's operations are serialized by its
// own opMu, and every table access goes through atomic database
// snapshots), so processing them concurrently overlaps the dominant cost:
// waiting for the chain, or in a receive round for each share's fetch.
//
// All items run to completion even when some fail; the collected errors
// are joined in item order. A single item runs on the caller's goroutine.
func forEachShare[T any](items []T, fn func(T) error) error {
	if len(items) == 1 {
		return fn(items[0])
	}
	errs := make([]error, len(items))
	slots := make(chan struct{}, fanoutWorkers)
	var wg sync.WaitGroup
	for i, it := range items {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(it)
			<-slots
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
