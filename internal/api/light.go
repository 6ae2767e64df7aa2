package api

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"medshare/internal/chain"
	"medshare/internal/light"
	"medshare/internal/reldb"
)

// Light serving over HTTP, the light clients' only transport: header
// pages, proven share heads and proven rows, exposed as endpoints so a
// light client can run against a medshared -api process with nothing
// but an HTTP connection. The payloads are the binary light wire frames
// (not JSON): every byte is part of a hash preimage or a proof, so the
// transport encoding and the verification encoding must be the same
// bytes.

const lightContentType = "application/octet-stream"

// handleLightHeaders serves one page of main-chain headers from
// ?from=H (binary chain.EncodeHeaders frame; empty page = caught up).
func (s *Server) handleLightHeaders(w http.ResponseWriter, r *http.Request) error {
	from := uint64(0)
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			return badRequest("from: %v", err)
		}
		from = v
	}
	w.Header().Set("Content-Type", lightContentType)
	_, _ = w.Write(chain.EncodeHeaders(s.peer.LightHeaders(from)))
	return nil
}

// handleLightHead serves the share's proven on-chain head (binary
// light.EncodeShareHead frame).
func (s *Server) handleLightHead(w http.ResponseWriter, r *http.Request) error {
	head, err := s.peer.LightHead(r.PathValue("id"))
	if err != nil {
		if strings.Contains(err.Error(), "no value for key") {
			return &httpError{status: http.StatusNotFound, err: err}
		}
		return err
	}
	w.Header().Set("Content-Type", lightContentType)
	_, _ = w.Write(light.EncodeShareHead(&head))
	return nil
}

// handleLightRow serves one proven view row by ?key=v1,v2 (binary
// light.EncodeRowFetch frame).
func (s *Server) handleLightRow(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	view, err := s.peer.View(id)
	if err != nil {
		return err
	}
	key, err := parseKeyQuery(r.URL.Query().Get("key"), view.Schema())
	if err != nil {
		return badRequest("key: %v", err)
	}
	rf, err := s.peer.LightRow(id, key)
	if err != nil {
		if strings.Contains(err.Error(), "not found") {
			return &httpError{status: http.StatusNotFound, err: err}
		}
		return err
	}
	w.Header().Set("Content-Type", lightContentType)
	_, _ = w.Write(light.EncodeRowFetch(&rf))
	return nil
}

// LightSource is a light.Source over the HTTP serving edge: the
// transport for `medsharectl light`. Responses are the binary light
// wire frames, decoded with the light package's codec.
type LightSource struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8344".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

func (s *LightSource) http() *http.Client {
	if s.HTTPClient != nil {
		return s.HTTPClient
	}
	return http.DefaultClient
}

// get fetches one binary frame, returning the body and its size.
func (s *LightSource) get(ctx context.Context, path string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.BaseURL+path, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := s.http().Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<26))
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(data))
		if len(msg) > 256 {
			msg = msg[:256]
		}
		return nil, len(data), fmt.Errorf("api: light %s: status %d: %s", path, resp.StatusCode, msg)
	}
	return data, len(data), nil
}

// Headers implements light.Source.
func (s *LightSource) Headers(ctx context.Context, fromHeight uint64) ([]chain.Header, int, error) {
	data, n, err := s.get(ctx, "/v1/light/headers?from="+strconv.FormatUint(fromHeight, 10))
	if err != nil {
		return nil, n, err
	}
	hs, err := chain.DecodeHeaders(data)
	return hs, n, err
}

// ShareHead implements light.Source.
func (s *LightSource) ShareHead(ctx context.Context, shareID string) (light.ShareHead, int, error) {
	data, n, err := s.get(ctx, "/v1/light/shares/"+url.PathEscape(shareID)+"/head")
	if err != nil {
		return light.ShareHead{}, n, err
	}
	head, err := light.DecodeShareHead(data)
	if err != nil {
		return light.ShareHead{}, n, err
	}
	return head, n, nil
}

// Row implements light.Source. The key renders into the comma-separated
// read syntax, so it carries the same restriction as /row: string key
// parts must not contain commas.
func (s *LightSource) Row(ctx context.Context, shareID string, key reldb.Row) (light.RowFetch, int, error) {
	parts := make([]string, len(key))
	for i, v := range key {
		parts[i] = v.String()
	}
	q := url.Values{"key": {strings.Join(parts, ",")}}
	data, n, err := s.get(ctx, "/v1/light/shares/"+url.PathEscape(shareID)+"/row?"+q.Encode())
	if err != nil {
		return light.RowFetch{}, n, err
	}
	rf, err := light.DecodeRowFetch(data)
	if err != nil {
		return light.RowFetch{}, n, err
	}
	return rf, n, nil
}
