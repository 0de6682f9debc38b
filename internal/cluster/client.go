package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sfg"
)

// client performs the coordinator's peer RPCs. Every call carries a
// per-RPC deadline and runs under the service retry policy's jittered
// exponential backoff; definitive answers (a peer that does not hold a
// profile, a validation rejection) are wrapped service.Permanent so
// they return after the first attempt.
type client struct {
	http         *http.Client
	rpcTimeout   time.Duration
	sweepTimeout time.Duration
	retry        service.RetryPolicy
	retries      *atomic.Uint64
}

// errNotHeld reports a clean 404 from a fetch: the peer is alive and
// answered, it just does not have the graph.
var errNotHeld = fmt.Errorf("peer does not hold the profile")

// do runs one HTTP exchange under a deadline, returning the response
// body. Non-2xx statuses become errors carrying the body's error text;
// notFoundErr, when non-nil, replaces the generic error for 404 (so the
// caller can mark it Permanent).
func (c *client) do(ctx context.Context, timeout time.Duration, req func(ctx context.Context) (*http.Request, error), notFoundErr error) ([]byte, error) {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	r, err := req(rctx)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(r)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode == http.StatusNotFound && notFoundErr != nil {
		return nil, service.Permanent(notFoundErr)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg := struct {
			Error string `json:"error"`
		}{}
		_ = json.Unmarshal(body, &msg)
		err := fmt.Errorf("status %d: %s", resp.StatusCode, msg.Error)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			// The request itself is wrong (or the node is not
			// clustered); repeating it cannot help.
			return nil, service.Permanent(err)
		}
		return nil, err
	}
	return body, nil
}

// fetchGraph retrieves key's graph from the peer at base. The envelope
// CRC plus the embedded-key check validate the transfer end-to-end, so
// a truncated or corrupted body surfaces as a retriable error here, not
// as a bad graph downstream. An envelope of another store version is
// permanent: resolution moves on to the next replica or to profiling.
func (c *client) fetchGraph(ctx context.Context, base string, key service.ProfileKey) (*sfg.Graph, error) {
	payload, err := json.Marshal(service.ClusterFetchRequest{Key: key})
	if err != nil {
		return nil, err
	}
	var g *sfg.Graph
	err = c.retry.Run(ctx, c.retries, func() error {
		body, err := c.do(ctx, c.rpcTimeout, func(ctx context.Context) (*http.Request, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/cluster/fetch", bytes.NewReader(payload))
			if err == nil {
				req.Header.Set("Content-Type", "application/json")
			}
			return req, err
		}, errNotHeld)
		if err != nil {
			return err
		}
		_, decoded, err := service.DecodeProfileEnvelope(body, &key)
		if errors.Is(err, service.ErrProfileVersion) {
			// A peer on the other store format (a rolling upgrade)
			// sends the same envelope on every attempt.
			return service.Permanent(fmt.Errorf("envelope from %s: %w", base, err))
		}
		if err != nil {
			return fmt.Errorf("envelope from %s: %w", base, err)
		}
		g = decoded
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// offerGraph pushes an already-encoded envelope to the peer at base.
func (c *client) offerGraph(ctx context.Context, base string, envelope []byte) error {
	return c.retry.Run(ctx, c.retries, func() error {
		_, err := c.do(ctx, c.rpcTimeout, func(ctx context.Context) (*http.Request, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/cluster/offer", bytes.NewReader(envelope))
			if err == nil {
				req.Header.Set("Content-Type", "application/octet-stream")
			}
			return req, err
		}, nil)
		return err
	})
}

// probe asks the peer's health endpoint. Only a clean 200 counts: a
// draining or shedding node answers 503, and routing new sweep points
// at it would be wrong even though its process is alive. A healthy
// answer also yields the peer's build provenance for /v1/cluster/status
// — a mixed-version ring is the first thing to check when nodes
// disagree.
func (c *client) probe(ctx context.Context, base string) (*service.BuildInfo, error) {
	rctx, cancel := context.WithTimeout(ctx, c.rpcTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	var health service.HealthResponse
	if err := json.Unmarshal(body, &health); err == nil {
		b := health.Build
		return &b, nil
	}
	return nil, nil
}

// fetchMetrics scrapes the peer's Prometheus exposition for the fleet
// metrics view. One attempt under the RPC timeout: a scrape is a
// point-in-time read, and the fleet view reports an unreachable peer
// as down rather than blocking the merged exposition on retries.
func (c *client) fetchMetrics(ctx context.Context, base string) ([]byte, error) {
	return c.do(ctx, c.rpcTimeout, func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics?format=prometheus", nil)
		if err == nil {
			req.Header.Set("Accept", "text/plain")
		}
		return req, err
	}, nil)
}

// sweepOn runs a sub-sweep on the peer at base and returns the peer's
// full response (rows in point order, plus the cost ledger tail and
// the trace-span slice the peer piggybacks for fanout requests). The
// fanout header stops the peer from fanning the sub-request back out,
// raw_metrics makes the returned metrics byte-exact for journaling,
// and the trace headers parent the peer's spans under the
// coordinator's dispatch span so every slice assembles into one tree.
// The call is NOT retried here: a failure is peer-loss evidence, and
// the coordinator's failover re-partitions the unfinished points
// instead (the peer's own journal deduplicates any points it had
// already finished).
func (c *client) sweepOn(ctx context.Context, base string, req service.SweepRequest) (*service.SweepResponse, error) {
	req.RawMetrics = true
	req.Cost = true
	traceID := obs.TracerFromContext(ctx).TraceID()
	parentSpan := obs.SpanIDFromContext(ctx)
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	body, err := c.do(ctx, c.sweepTimeout, func(ctx context.Context) (*http.Request, error) {
		r, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweep", bytes.NewReader(payload))
		if err == nil {
			r.Header.Set("Content-Type", "application/json")
			r.Header.Set(service.ClusterFanoutHeader, "1")
			if traceID != "" {
				r.Header.Set("X-Request-Id", traceID)
			}
			if parentSpan != "" {
				r.Header.Set(service.ClusterParentSpanHeader, parentSpan)
			}
		}
		return r, err
	}, nil)
	if err != nil {
		return nil, err
	}
	var resp service.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("sub-sweep response from %s: %w", base, err)
	}
	if len(resp.Results) != len(req.Points) {
		return nil, fmt.Errorf("sub-sweep returned %d rows for %d points", len(resp.Results), len(req.Points))
	}
	for i := range resp.Results {
		if resp.Results[i].Raw == nil {
			return nil, fmt.Errorf("sub-sweep row %d missing raw metrics", i)
		}
	}
	return &resp, nil
}
