package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// errShed marks a request the server shed (HTTP 503). It is never
// retried and counts as a failure.
var errShed = errors.New("shed by the server")

// reply is the decoded part of a successful response the checker reads.
type reply struct {
	key, keyB string
	ids       []uint64
	est       float64
}

// dialWire opens a synchronous wire client: no retries, a timeout on
// every request.
func dialWire(addr string) (*wire.Client, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.Timeout, c.Retries = requestTimeout, 0
	return c, nil
}

// httpClient speaks HTTP/JSON over a shared keep-alive transport; it
// serves one goroutine at a time.
type httpClient struct {
	c    *http.Client
	base string
}

func newHTTPTransport(conns int) *http.Transport {
	return &http.Transport{
		DialContext:         (&net.Dialer{Timeout: requestTimeout, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
}

// httpRequest returns the endpoint and request body of o.
func httpRequest(o *op) (string, any) {
	switch o.kind {
	case opSample1, opDynSample:
		return "/v1/sample", server.SampleRequest{Key: o.key, N: 1, Dynamic: o.dyn >= 0}
	case opReconstruct, opDynReconstruct:
		return "/v1/reconstruct", server.ReconstructRequest{Key: o.key, Dynamic: o.dyn >= 0}
	case opIntersection:
		return "/v1/intersection", server.IntersectionRequest{KeyA: o.key, KeyB: o.keyB}
	case opAdd:
		return "/v1/add", server.AddRequest{Key: o.key, IDs: o.ids, Dynamic: true}
	default:
		return "/v1/remove", server.RemoveRequest{Key: o.key, IDs: o.ids}
	}
}

func (h *httpClient) do(o *op) (reply, error) {
	path, body := httpRequest(o)
	js, err := json.Marshal(body)
	if err != nil {
		return reply{}, err
	}
	resp, err := h.c.Post(h.base+path, "application/json", bytes.NewReader(js))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		return reply{}, errShed
	case resp.StatusCode != http.StatusOK:
		return reply{}, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	var r reply
	var n, want int
	switch o.kind {
	case opSample1, opDynSample:
		var v server.SampleResponse
		err = json.Unmarshal(data, &v)
		r.key, r.ids, n, want = v.Key, v.IDs, v.Returned, len(v.IDs)
	case opReconstruct, opDynReconstruct:
		var v server.ReconstructResponse
		err = json.Unmarshal(data, &v)
		r.key, r.ids, n, want = v.Key, v.IDs, v.Count, len(v.IDs)
	case opIntersection:
		var v server.IntersectionResponse
		err = json.Unmarshal(data, &v)
		r.key, r.keyB, r.est = v.KeyA, v.KeyB, v.Estimate
	case opAdd:
		var v server.AddResponse
		err = json.Unmarshal(data, &v)
		r.key, n, want = v.Key, v.Added, len(o.ids)
	case opRemove:
		var v server.RemoveResponse
		err = json.Unmarshal(data, &v)
		r.key, n, want = v.Key, v.Removed, len(o.ids)
	}
	if err == nil && n != want {
		err = fmt.Errorf("malformed reply: count %d, want %d", n, want)
	}
	if err != nil {
		return reply{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// ingest loads the population through batched wire Adds.
func ingest(s *served, pop *population) error {
	w, err := dialWire(s.binAddr)
	if err != nil {
		return err
	}
	defer w.Close()
	const maxIDs, maxSets = 50_000, 64
	var batch []wire.AddSet
	ids := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		_, err := w.Add(batch...)
		batch, ids = batch[:0], 0
		return err
	}
	add := func(keys []string, sets []*idSet, dynamic bool) error {
		for i, k := range keys {
			if len(batch) == maxSets || ids+len(sets[i].ids) > maxIDs {
				if err := flush(); err != nil {
					return err
				}
			}
			batch = append(batch, wire.AddSet{Key: k, Dynamic: dynamic, IDs: sets[i].ids})
			ids += len(sets[i].ids)
		}
		return flush()
	}
	if err := add(pop.plainKeys, pop.plain, false); err != nil {
		return err
	}
	return add(pop.dynKeys, pop.dyn, true)
}

// serverStats reads the server's /v1/stats.
func serverStats(addr string) (*server.StatsResponse, error) {
	c := http.Client{Timeout: requestTimeout}
	resp, err := c.Get("http://" + addr + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats: HTTP %d", resp.StatusCode)
	}
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	return &st, nil
}

// removeAll deletes a run's scratch directory.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
