package light

import (
	"context"

	"medshare/internal/chain"
	"medshare/internal/reldb"
)

// Source is where a light client pulls chain and share material from
// (api.LightSource: a medshared process's HTTP light routes). Every
// method also reports the wire bytes moved (request + response payload),
// which the benchmark reports as light.wire_bytes_per_read. Nothing a
// Source returns is trusted — the Client verifies all of it.
type Source interface {
	// Headers returns main-chain headers starting at fromHeight, in
	// height order. An empty slice means the serving tip is below
	// fromHeight. Servers may cap the batch; callers loop.
	Headers(ctx context.Context, fromHeight uint64) ([]chain.Header, int, error)
	// ShareHead returns the share's on-chain metadata with a
	// state-membership proof against a main-chain header.
	ShareHead(ctx context.Context, shareID string) (ShareHead, int, error)
	// Row returns one view row by primary-key tuple with its membership
	// proof and the table-hash preimage fields.
	Row(ctx context.Context, shareID string, key reldb.Row) (RowFetch, int, error)
}
