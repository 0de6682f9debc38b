package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// Peer-to-peer RPC surface. These handlers speak the durable store's
// checksummed envelope as the wire format, deliberately stay off the
// instrument/JSON middleware (fetch responses and offer requests are
// binary), and never trigger profiling: a fetch serves only what this
// node already holds, so a cache miss can cascade into at most one
// round of peer fetches cluster-wide, never a profile storm.

const (
	// ClusterFanoutHeader marks a sweep sub-request dispatched by a
	// coordinator. The receiving node computes its partition locally —
	// without the marker a clustered peer would fan the sub-sweep back
	// out and the grid would ricochet around the ring forever. Exported
	// for the coordinator's client side.
	ClusterFanoutHeader = "X-Statsimd-Fanout"

	// ClusterParentSpanHeader carries the coordinator's dispatch span ID
	// on sweep sub-requests, next to X-Request-Id. The receiving node
	// parents its sub-sweep spans under it, so the slices every peer
	// ships back assemble into one tree instead of a forest of orphans.
	ClusterParentSpanHeader = "X-Statsimd-Parent-Span"

	// maxEnvelopeBytes caps offered profile envelopes; far above any
	// real SFG, far below a memory-exhaustion payload.
	maxEnvelopeBytes = 256 << 20
)

// ClusterFetchRequest is the POST /v1/cluster/fetch body.
type ClusterFetchRequest struct {
	Key ProfileKey `json:"key"`
}

// handleClusterFetch answers a peer's graph fetch: the profile's
// checksummed envelope as application/octet-stream, 404 when this node
// does not hold it (in cache or durable store). It never profiles.
func (s *Server) handleClusterFetch(w http.ResponseWriter, r *http.Request) {
	var req ClusterFetchRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		writeJSONError(w, err)
		return
	}
	g, ok := s.cache.Peek(req.Key)
	if !ok && s.store != nil {
		if loaded, err := s.store.Load(req.Key); err == nil {
			// Adopt into the cache: the next fetch (or local request)
			// skips the disk.
			s.cache.Put(req.Key, loaded)
			g, ok = loaded, true
		}
	}
	if !ok {
		s.clusterServed.graphsMissing.Add(1)
		writeJSONError(w, &apiError{code: http.StatusNotFound,
			err: errors.New("profile not resident on this node")})
		return
	}
	env, err := EncodeProfileEnvelope(req.Key, g)
	if err != nil {
		writeJSONError(w, err)
		return
	}
	s.clusterServed.graphsServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(env)
}

// handleClusterOffer accepts a replica pushed by a peer that just paid
// for profiling: the body is one checksummed envelope. The envelope's
// own validation (magic, version, CRC, parseable key) is the admission
// test; a corrupt or truncated transfer is rejected without touching
// cache or store.
func (s *Server) handleClusterOffer(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxEnvelopeBytes+1))
	if err != nil {
		s.clusterServed.offersRejected.Add(1)
		writeJSONError(w, badRequest("reading offer body: %v", err))
		return
	}
	if int64(len(body)) > maxEnvelopeBytes {
		s.clusterServed.offersRejected.Add(1)
		writeJSONError(w, &apiError{code: http.StatusRequestEntityTooLarge,
			err: errors.New("offered envelope exceeds limit")})
		return
	}
	key, g, err := DecodeProfileEnvelope(body, nil)
	if err != nil {
		s.clusterServed.offersRejected.Add(1)
		writeJSONError(w, badRequest("invalid envelope: %v", err))
		return
	}
	s.cache.Put(key, g)
	if s.store != nil {
		// Only persist what the store does not already hold: a
		// replicated graph is bit-identical by construction, so a
		// current-version file needs no overwrite. A file an earlier
		// build wrote is a miss to Load, so the replica replaces it.
		if !s.store.holdsCurrent(key) {
			_ = s.store.Save(key, g)
		}
	}
	s.clusterServed.offersStored.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"stored": true})
}

// handleClusterStatus reports ring membership and peer health, plus
// both sides' counters — the operator's one-stop view of cluster state.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.cluster == nil {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(httpError{Error: "this node is not clustered"})
		return
	}
	json.NewEncoder(w).Encode(struct {
		ClusterStatus
		Stats  ClusterStats       `json:"stats"`
		Served ClusterServedStats `json:"served"`
	}{s.cluster.Status(), s.cluster.Stats(), s.clusterServed.snapshot()})
}

// writeJSONError renders err with apiError status awareness for the
// raw (un-instrumented) cluster handlers.
func writeJSONError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var ae *apiError
	if errors.As(err, &ae) {
		code = ae.code
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(httpError{Error: err.Error()})
}
