package core

import (
	"fmt"
	"sync"
	"testing"

	"medshare/internal/p2p"
	"medshare/internal/statedb"
)

// TestLightHeadVerifiesAtItsHeight serves LightHead while updates commit
// and checks every head it serves: its state proof must verify against
// the main-chain header at the head's Height.
func TestLightHeadVerifiesAtItsHeight(t *testing.T) {
	mem := p2p.NewMemNetwork(p2p.WithSeed(3))
	h := newSyncHarness(t, 8, mem.Endpoint("A"), mem.Endpoint("B"))
	stop := make(chan struct{})
	errc := make(chan error, 1)
	heights := map[uint64]bool{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			head, err := h.b.LightHead("S")
			if err == nil {
				mc := h.node.Store().MainChain()
				switch {
				case head.Height >= uint64(len(mc)):
					err = fmt.Errorf("head at height %d beyond the main chain's tip %d", head.Height, len(mc)-1)
				case !statedb.VerifyKeyProof(mc[head.Height].Header.StateRoot, "share/S", head.Meta, head.Version, head.Proof):
					err = fmt.Errorf("head at height %d does not verify against that height's header", head.Height)
				}
			}
			if err != nil {
				errc <- err
				return
			}
			heights[head.Height] = true
		}
	}()
	for i := 0; i < 12; i++ {
		h.finalizedUpdate(t, int64(i%8), fmt.Sprintf("light-%d", i))
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if len(heights) < 2 {
		t.Fatalf("heads served at %d heights: the test saw no block commit", len(heights))
	}
}
