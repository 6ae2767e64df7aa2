package medshare

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"medshare/internal/core"
	"medshare/internal/light"
	"medshare/internal/reldb"
	"medshare/internal/workload"
)

// LightReaderConfig tunes the light-reader scenario: a swarm of
// header-only light clients reading one share's view through a single
// serving full peer, while the sharing peers keep writing — the
// read-scaling counterpart of the serving-edge load harness, with every
// read proof-verified and every write stressing the clients' cache
// invalidation. Zero values select the defaults noted per field.
type LightReaderConfig struct {
	// Readers is the number of light clients (0 → 1050 — above the
	// thousand-readers-per-full-peer design point).
	Readers int
	// Records is the synthetic record count behind the share (0 → 64).
	Records int
	// ReadsPerReader is how many distinct keys each reader verifies
	// before the write phase (0 → 2).
	ReadsPerReader int
	// Writes is the number of finalized updates driven through the
	// share concurrently with the reads (0 → 6).
	Writes int
	// Concurrency bounds how many readers run at once (0 → 64).
	Concurrency int
	// Seed drives the workload generator.
	Seed int64
	// BlockInterval is the chain's block period (0 → 2ms).
	BlockInterval time.Duration
}

func (c LightReaderConfig) withDefaults() LightReaderConfig {
	if c.Readers <= 0 {
		c.Readers = 1050
	}
	if c.Records <= 0 {
		c.Records = 64
	}
	if c.ReadsPerReader <= 0 {
		c.ReadsPerReader = 2
	}
	if c.Writes <= 0 {
		c.Writes = 6
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 64
	}
	if c.BlockInterval <= 0 {
		c.BlockInterval = 2 * time.Millisecond
	}
	return c
}

// LightReaderReport aggregates a light-reader run: reader-side verified
// work and failures, and the serving peer's view of the traffic.
type LightReaderReport struct {
	// Readers is the number of light clients that ran; Reads the total
	// verified reads they performed.
	Readers int
	Reads   int
	// Writes is the number of updates finalized during the read phase.
	Writes int
	// VerifyFailures sums every client's verification failures — the
	// acceptance criterion is zero.
	VerifyFailures uint64
	// RowsVerified, CacheHits and StaleRetries aggregate the clients'
	// proof work (StaleRetries > 0 means reads raced writes and the
	// re-prove path actually ran).
	RowsVerified uint64
	CacheHits    uint64
	StaleRetries uint64
	// WireBytes is the total light-protocol bytes moved by all clients.
	WireBytes uint64
	// MeanStateBytes is the mean per-reader retained state (headers +
	// share metadata + cached rows) at the end of the run.
	MeanStateBytes int
	// ServingStats is the serving peer's counter snapshot (the
	// HeadersServed / LightHeadsServed / LightRowsServed axis).
	ServingStats core.Stats
}

// LightReaderScenario is the Fig. 1 topology plus a swarm of light
// clients attached to the doctor's serving edge.
type LightReaderScenario struct {
	*Fig1Scenario
	Clients []*light.Client
	cfg     LightReaderConfig
}

// NewLightReaderScenario builds the Fig. 1 stakeholders on a two-node
// network (block gossip must flow so light clients are invalidated by
// subscription, not polling), drives one initial update so the share
// has a finalized payload to verify against, and attaches the reader
// swarm — every client subscribed to the patient/doctor share and
// served by the doctor alone.
func NewLightReaderScenario(ctx context.Context, cfg LightReaderConfig) (*LightReaderScenario, error) {
	cfg = cfg.withDefaults()
	nw, err := NewNetwork(NetworkConfig{
		Nodes:         2,
		BlockInterval: cfg.BlockInterval,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	fig, err := PopulateFig1(ctx, nw, cfg.Records, cfg.Seed)
	if err != nil {
		nw.Stop()
		return nil, err
	}
	sc := &LightReaderScenario{Fig1Scenario: fig, cfg: cfg}
	// A share at seq 0 has no finalized payload hash on-chain, so there
	// is nothing a verified read could anchor to; drive the first update
	// through before any reader attaches.
	if err := sc.write(ctx, 0); err != nil {
		nw.Stop()
		return nil, err
	}
	for i := 0; i < cfg.Readers; i++ {
		c, err := nw.NewLightClient(fmt.Sprintf("reader-%d", i), "Doctor")
		if err != nil {
			nw.Stop()
			return nil, err
		}
		c.Subscribe(sc.ShareD13)
		sc.Clients = append(sc.Clients, c)
	}
	return sc, nil
}

// write pushes one finalized dosage update through the doctor's D3
// source — the canonical "the share moved" event the light clients must
// survive: edit, propose, and wait for finality on every affected share.
func (sc *LightReaderScenario) write(ctx context.Context, i int) error {
	key := int64(188 + i%sc.cfg.Records)
	err := sc.Doctor.UpdateSource("D3", func(t *reldb.Table) error {
		return t.Update(reldb.Row{reldb.I(key)}, map[string]reldb.Value{
			workload.ColDosage: reldb.S(fmt.Sprintf("light dosage %d", i)),
		})
	})
	if err != nil {
		return err
	}
	results, err := sc.Doctor.SyncShares(ctx, "D3")
	if err != nil {
		return err
	}
	for _, r := range results {
		if err := sc.Doctor.WaitFinal(ctx, r.ShareID, r.Seq); err != nil {
			return err
		}
	}
	return nil
}

// Run drives the swarm: every reader header-syncs and proof-verifies
// ReadsPerReader distinct keys while the doctor keeps finalizing
// updates, then — after the last write — a sample of readers is polled
// until gossip-driven invalidation makes their verified reads reflect
// the final on-chain version. Any verification failure anywhere fails
// the run.
func (sc *LightReaderScenario) Run(ctx context.Context) (*LightReaderReport, error) {
	cfg := sc.cfg
	report := &LightReaderReport{Readers: len(sc.Clients)}
	keyAt := func(i int) reldb.Row { return reldb.Row{reldb.I(int64(188 + i%cfg.Records))} }

	// Writer: sequential finalized updates racing the read swarm.
	writeErr := make(chan error, 1)
	var writesDone atomic.Uint32
	go func() {
		defer close(writeErr)
		for i := 1; i <= cfg.Writes; i++ {
			if err := sc.write(ctx, i); err != nil {
				writeErr <- fmt.Errorf("write %d: %w", i, err)
				return
			}
			writesDone.Add(1)
		}
	}()

	// Reader pool.
	var reads atomic.Uint64
	sem := make(chan struct{}, cfg.Concurrency)
	readErrs := make(chan error, len(sc.Clients))
	var wg sync.WaitGroup
	for i, c := range sc.Clients {
		wg.Add(1)
		go func(i int, c *light.Client) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if _, err := c.SyncHeaders(ctx); err != nil {
				readErrs <- fmt.Errorf("reader %d header sync: %w", i, err)
				return
			}
			for r := 0; r < cfg.ReadsPerReader; r++ {
				if _, err := c.Read(ctx, sc.ShareD13, keyAt(i+r)); err != nil {
					readErrs <- fmt.Errorf("reader %d read %d: %w", i, r, err)
					return
				}
				reads.Add(1)
			}
		}(i, c)
	}
	wg.Wait()
	close(readErrs)
	for err := range readErrs {
		return report, err
	}
	if err := <-writeErr; err != nil {
		return report, err
	}
	report.Writes = int(writesDone.Load())

	// Freshness: the last write touched keyAt(cfg.Writes). A sample of
	// readers must converge to its final value through gossip-driven
	// invalidation alone — a stale cached row surviving the version
	// advance would stick forever and fail the deadline.
	finalKey := keyAt(cfg.Writes)
	wantVal := fmt.Sprintf("light dosage %d", cfg.Writes)
	dosageIdx := -1
	sample := len(sc.Clients)
	if sample > 8 {
		sample = 8
	}
	for i := 0; i < sample; i++ {
		c := sc.Clients[i*len(sc.Clients)/sample]
		deadline := time.Now().Add(5 * time.Second)
		for {
			row, err := c.Read(ctx, sc.ShareD13, finalKey)
			if err != nil {
				return report, fmt.Errorf("freshness read: %w", err)
			}
			reads.Add(1)
			if dosageIdx < 0 {
				view, verr := sc.Doctor.View(sc.ShareD13)
				if verr != nil {
					return report, verr
				}
				dosageIdx = view.Schema().ColumnIndex(workload.ColDosage)
			}
			if got, _ := row[dosageIdx].Str(); got == wantVal {
				break
			}
			if time.Now().After(deadline) {
				return report, fmt.Errorf("light reader never observed the final write (cache invalidation failed)")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	report.Reads = int(reads.Load())
	var stateBytes int
	for _, c := range sc.Clients {
		st := c.Stats()
		report.VerifyFailures += st.VerifyFailures
		report.RowsVerified += st.RowsVerified
		report.CacheHits += st.CacheHits
		report.StaleRetries += st.StaleRetries
		report.WireBytes += st.WireBytes
		stateBytes += c.StateBytes()
	}
	if len(sc.Clients) > 0 {
		report.MeanStateBytes = stateBytes / len(sc.Clients)
	}
	report.ServingStats = sc.Doctor.Stats()
	if report.VerifyFailures > 0 {
		return report, fmt.Errorf("light readers recorded %d verification failures", report.VerifyFailures)
	}
	return report, nil
}
