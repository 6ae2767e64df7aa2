package medshare

import (
	"context"
	"testing"
	"time"
)

// TestLightReaderScenario drives the headline light-client claim: more
// than a thousand light readers against a single serving full peer,
// every read proof-verified, with concurrent finalized writes racing
// the reads — and zero verification failures.
func TestLightReaderScenario(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// 1050 readers sits above the thousand-readers-per-full-peer design
	// point.
	readers := 1050
	if testing.Short() || raceDetectorOn {
		// The thousand-reader swarm is CPU-bound on proof verification;
		// under the race detector's slowdown it blows the per-request
		// timeouts without exercising anything new. A smaller swarm keeps
		// the interleavings while staying within budget.
		readers = 64
	}
	sc, err := NewLightReaderScenario(ctx, readers)
	if err != nil {
		t.Fatalf("scenario setup: %v", err)
	}
	defer sc.Network.Stop()

	report, err := sc.Run(ctx)
	if err != nil {
		t.Fatalf("scenario run: %v", err)
	}
	if !testing.Short() && !raceDetectorOn && report.Readers < 1000 {
		t.Fatalf("scenario ran %d readers, want >= 1000", report.Readers)
	}
	if report.VerifyFailures != 0 {
		t.Fatalf("verification failures: %d", report.VerifyFailures)
	}
	if report.RowsVerified == 0 {
		t.Fatalf("no rows were proof-verified")
	}
	if report.Writes == 0 {
		t.Fatalf("no concurrent writes were finalized")
	}
	if report.ServingStats.LightRowsServed == 0 {
		t.Fatalf("serving peer recorded no light row requests: %+v", report.ServingStats)
	}
	if report.ServingStats.HeadersServed == 0 {
		t.Fatalf("serving peer recorded no header requests: %+v", report.ServingStats)
	}
	t.Logf("readers=%d reads=%d writes=%d rowsVerified=%d cacheHits=%d staleRetries=%d wireBytes=%d meanStateBytes=%d",
		report.Readers, report.Reads, report.Writes, report.RowsVerified,
		report.CacheHits, report.StaleRetries, report.WireBytes, report.MeanStateBytes)
}
