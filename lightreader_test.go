package medshare

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medshare/internal/api"
	"medshare/internal/chain"
	"medshare/internal/consensus"
	"medshare/internal/identity"
	"medshare/internal/light"
	"medshare/internal/reldb"
	"medshare/internal/workload"
)

// The light-reader scenario's fixed shape: a swarm of header-only light
// clients reading one share's view over the HTTP light routes of a
// single serving full peer, while the sharing peers keep writing —
// every read proof-verified.
const (
	// lightReaderRecords is the synthetic record count behind the share.
	lightReaderRecords = 64
	// lightReadsPerReader is how many distinct keys each reader verifies.
	lightReadsPerReader = 2
	// lightReaderWrites is the number of finalized updates driven through
	// the share concurrently with the reads.
	lightReaderWrites = 6
	// lightReaderConcurrency bounds how many readers run at once.
	lightReaderConcurrency = 64
)

// lightReaderScenario is the Fig. 1 topology with the doctor serving
// the HTTP API, the way `medshared -api` does, and a swarm of light
// clients subscribed to the patient/doctor share.
type lightReaderScenario struct {
	*Fig1Scenario
	server  *httptest.Server
	http    *http.Client
	verify  chain.HeaderVerifier
	clients []*light.Client
}

// newLightReaderScenario builds the scenario, drives one update so the
// share has a finalized payload to verify against, and attaches the
// given number of light clients.
func newLightReaderScenario(ctx context.Context, t *testing.T, readers int) *lightReaderScenario {
	t.Helper()
	fig, err := NewFig1Scenario(ctx, NetworkConfig{BlockInterval: 2 * time.Millisecond}, lightReaderRecords, 0)
	if err != nil {
		t.Fatalf("scenario setup: %v", err)
	}
	t.Cleanup(fig.Stop)
	srv, err := api.New(api.Config{Peer: fig.Doctor, Node: fig.Network.Node(fig.Network.Nodes() - 1)})
	if err != nil {
		t.Fatal(err)
	}
	sc := &lightReaderScenario{
		Fig1Scenario: fig,
		server:       httptest.NewServer(srv.Handler()),
		http:         &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: lightReaderConcurrency}},
	}
	t.Cleanup(sc.server.Close)
	t.Cleanup(sc.http.CloseIdleConnections)
	addrs := make([]identity.Address, fig.Network.Nodes())
	for i := range addrs {
		addrs[i] = fig.Network.Node(i).Address()
	}
	sc.verify = consensus.NewPoA(true, addrs...).VerifyHeader

	// A share at seq 0 has no finalized payload hash on-chain, so there
	// is nothing a verified read could anchor to.
	if err := sc.write(ctx, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < readers; i++ {
		sc.clients = append(sc.clients, sc.newClient(t))
	}
	return sc
}

// newClient starts a light client on the doctor's HTTP light routes,
// anchored on the network's genesis and its authority set.
func (sc *lightReaderScenario) newClient(t *testing.T) *light.Client {
	t.Helper()
	c, err := light.New(light.Config{
		Network: sc.Network.cfg.Name,
		Verify:  sc.verify,
		Source:  &api.LightSource{BaseURL: sc.server.URL, HTTPClient: sc.http},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Subscribe(sc.ShareD13)
	return c
}

// write pushes one finalized dosage update through the doctor's D3
// source: edit, propose, and wait for finality on every affected share.
func (sc *lightReaderScenario) write(ctx context.Context, i int) error {
	key := int64(188 + i%lightReaderRecords)
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

// apiRequests reads the serving API's request count for one kind from
// /metrics.
func (sc *lightReaderScenario) apiRequests(t *testing.T, kind string) float64 {
	t.Helper()
	resp, err := sc.http.Get(sc.server.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	prefix := `medshare_api_requests_total{kind="` + kind + `"} `
	for lines := bufio.NewScanner(resp.Body); lines.Scan(); {
		if v, ok := strings.CutPrefix(lines.Text(), prefix); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s line", prefix)
	return 0
}

// TestLightReaderScenario drives the headline light-client claim: more
// than a thousand light readers against a single serving full peer over
// HTTP, every read proof-verified, with concurrent finalized writes
// racing the reads — and zero verification failures.
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
	sc := newLightReaderScenario(ctx, t, readers)
	keyAt := func(i int) reldb.Row { return reldb.Row{reldb.I(int64(188 + i%lightReaderRecords))} }

	// Writer: sequential finalized updates racing the read swarm.
	writeErr := make(chan error, 1)
	var writes atomic.Uint32
	go func() {
		defer close(writeErr)
		for i := 1; i <= lightReaderWrites; i++ {
			if err := sc.write(ctx, i); err != nil {
				writeErr <- fmt.Errorf("write %d: %w", i, err)
				return
			}
			writes.Add(1)
		}
	}()

	var reads atomic.Uint64
	sem := make(chan struct{}, lightReaderConcurrency)
	readErrs := make(chan error, len(sc.clients))
	var wg sync.WaitGroup
	for i, c := range sc.clients {
		wg.Add(1)
		go func(i int, c *light.Client) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if _, err := c.SyncHeaders(ctx); err != nil {
				readErrs <- fmt.Errorf("reader %d header sync: %w", i, err)
				return
			}
			for r := 0; r < lightReadsPerReader; r++ {
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
		t.Fatal(err)
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
	if writes.Load() == 0 {
		t.Fatal("no concurrent writes were finalized")
	}

	// Freshness: the last write touched keyAt(lightReaderWrites). A fresh
	// client, as `medsharectl light` starts on every call, must read its
	// final value through a fresh header and proof chain.
	view, err := sc.Doctor.View(sc.ShareD13)
	if err != nil {
		t.Fatal(err)
	}
	dosageIdx := view.Schema().ColumnIndex(workload.ColDosage)
	want := fmt.Sprintf("light dosage %d", lightReaderWrites)
	fresh := sc.newClient(t)
	row, err := fresh.Read(ctx, sc.ShareD13, keyAt(lightReaderWrites))
	if err != nil {
		t.Fatalf("freshness read: %v", err)
	}
	if got, _ := row[dosageIdx].Str(); got != want {
		t.Fatalf("fresh light client read %q after the last write, want %q", got, want)
	}

	var rowsVerified, cacheHits, staleRetries, wireBytes uint64
	stateBytes := 0
	for _, c := range append(sc.clients, fresh) {
		st := c.Stats()
		if st.VerifyFailures != 0 {
			t.Fatalf("verification failures: %+v", st)
		}
		rowsVerified += st.RowsVerified
		cacheHits += st.CacheHits
		staleRetries += st.StaleRetries
		wireBytes += st.WireBytes
		stateBytes += c.StateBytes()
	}
	if rowsVerified == 0 {
		t.Fatal("no rows were proof-verified")
	}
	if !testing.Short() && !raceDetectorOn && len(sc.clients) < 1000 {
		t.Fatalf("scenario ran %d readers, want >= 1000", len(sc.clients))
	}
	if n := sc.apiRequests(t, "light_row"); n < float64(rowsVerified) {
		t.Fatalf("serving API counted %v light_row requests for %d verified rows", n, rowsVerified)
	}
	if n := sc.apiRequests(t, "light_headers"); n == 0 {
		t.Fatal("serving API counted no light_headers requests")
	}
	t.Logf("readers=%d reads=%d writes=%d rowsVerified=%d cacheHits=%d staleRetries=%d wireBytes=%d meanStateBytes=%d",
		len(sc.clients), reads.Load(), writes.Load(), rowsVerified,
		cacheHits, staleRetries, wireBytes, stateBytes/(len(sc.clients)+1))
}
