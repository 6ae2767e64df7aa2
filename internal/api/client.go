package api

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"medshare/internal/reldb"
)

// Client is the Go client for the serving edge, shared by medsharectl
// and the benchmark's serve_mixed workload.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8344".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Load generators inject
	// one with a tuned Transport (high MaxIdleConnsPerHost) so
	// connection setup doesn't pollute latency tails.
	HTTPClient *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do runs one request and decodes the JSON response into out (skipped
// when out is nil). Non-2xx responses decode the ErrorResponse body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var er ErrorResponse
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			return fmt.Errorf("api: %s %s: %s (%d)", method, path, er.Error, resp.StatusCode)
		}
		return fmt.Errorf("api: %s %s: status %d", method, path, resp.StatusCode)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Register registers a new share.
func (c *Client) Register(ctx context.Context, req RegisterRequest) (ShareStatus, error) {
	var st ShareStatus
	err := c.do(ctx, http.MethodPost, "/v1/shares", req, &st)
	return st, err
}

// Attach binds an existing share on the serving peer.
func (c *Client) Attach(ctx context.Context, id string, req AttachRequest) (ShareStatus, error) {
	var st ShareStatus
	err := c.do(ctx, http.MethodPost, "/v1/shares/"+url.PathEscape(id)+"/attach", req, &st)
	return st, err
}

// Share fetches one share's status.
func (c *Client) Share(ctx context.Context, id string) (ShareStatus, error) {
	var st ShareStatus
	err := c.do(ctx, http.MethodGet, "/v1/shares/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Rows fetches the whole view.
func (c *Client) Rows(ctx context.Context, id string) (*reldb.Table, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/shares/"+url.PathEscape(id)+"/rows", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("api: rows %s: status %d", id, resp.StatusCode)
	}
	return reldb.UnmarshalTable(data)
}

// Row fetches one row by key parts (rendered into the comma key
// syntax). With proof set, the result carries the Merkle membership
// proof and VerifyRow can check it.
func (c *Client) Row(ctx context.Context, id string, keyParts []string, proof bool) (RowResult, error) {
	q := url.Values{"key": {strings.Join(keyParts, ",")}}
	if proof {
		q.Set("proof", "1")
	}
	var out RowResult
	err := c.do(ctx, http.MethodGet, "/v1/shares/"+url.PathEscape(id)+"/row?"+q.Encode(), nil, &out)
	return out, err
}

// VerifyRow checks a proof-carrying RowResult against its root.
func VerifyRow(res RowResult) (bool, error) {
	if res.Proof == nil || res.Root == "" {
		return false, fmt.Errorf("api: result carries no proof")
	}
	rb, err := hex.DecodeString(res.Root)
	if err != nil || len(rb) != 32 {
		return false, fmt.Errorf("api: bad root %q", res.Root)
	}
	var root [32]byte
	copy(root[:], rb)
	return reldb.VerifyRowProof(root, res.Row, *res.Proof), nil
}

// VerifyRowPayload recomputes the table hash a proof-carrying RowResult
// commits to — sha256(schemaSum ‖ rowCount ‖ root), the exact preimage
// of reldb.Table.Hash — returned hex-encoded for comparison with the
// share's on-chain PayloadHash at the result's Seq.
func VerifyRowPayload(res RowResult) (string, error) {
	if res.Root == "" || res.SchemaSum == "" {
		return "", fmt.Errorf("api: result carries no table-hash preimage")
	}
	rb, err := hex.DecodeString(res.Root)
	if err != nil || len(rb) != 32 {
		return "", fmt.Errorf("api: bad root %q", res.Root)
	}
	sb, err := hex.DecodeString(res.SchemaSum)
	if err != nil || len(sb) != 32 {
		return "", fmt.Errorf("api: bad schema sum %q", res.SchemaSum)
	}
	var buf [72]byte
	copy(buf[:32], sb)
	binary.BigEndian.PutUint64(buf[32:40], uint64(res.Rows))
	copy(buf[40:], rb)
	h := sha256.Sum256(buf[:])
	return hex.EncodeToString(h[:]), nil
}

// Update applies entry-level view mutations through the write
// coalescer.
func (c *Client) Update(ctx context.Context, id string, ops []RowOp) (UpdateResult, error) {
	var out UpdateResult
	err := c.do(ctx, http.MethodPost, "/v1/shares/"+url.PathEscape(id)+"/update", UpdateRequest{Ops: ops}, &out)
	return out, err
}

// Audit fetches the share's on-chain audit trail.
func (c *Client) Audit(ctx context.Context, id string) ([]AuditRecord, error) {
	var out []AuditRecord
	err := c.do(ctx, http.MethodGet, "/v1/shares/"+url.PathEscape(id)+"/audit", nil, &out)
	return out, err
}
