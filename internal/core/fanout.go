package core

import (
	"errors"
	"sync"
)

// forEachShare runs fn over items on up to fanoutWorkers goroutines — the
// peer's fan-out primitive for cascade, Resync and receive rounds. Shares
// are mutually independent (each share's operations are serialized by its
// own opMu, and every table access goes through atomic database
// snapshots), so processing them concurrently overlaps the dominant cost:
// waiting for the chain, or in a receive round for each share's fetch.
//
// All items run to completion even when some fail; the collected errors
// are joined. A single item runs on the caller's goroutine.
func forEachShare[T any](items []T, fn func(T) error) error {
	if len(items) == 0 {
		return nil
	}
	workers := min(fanoutWorkers, len(items))
	if workers == 1 {
		var errs []error
		for _, it := range items {
			if err := fn(it); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		next int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(items) {
					mu.Unlock()
					return
				}
				it := items[next]
				next++
				mu.Unlock()
				if err := fn(it); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
