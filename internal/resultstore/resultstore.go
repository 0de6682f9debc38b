// Package resultstore persists finished simulation results — the
// (design-point fingerprint → metrics) tuples every sweep and simulate
// request produces — so a point computed once is never simulated again.
// It is the ground-truth tier of the daemon's two-tier IPC oracle: an
// exact fingerprint hit is byte-identical to re-simulating (metrics are
// a deterministic function of the key, and they travel as the same JSON
// the sweep journal and the cluster wire format round-trip), so serving
// from the store is as sound as a cache hit.
//
// The on-disk format is an append-only record log ("RSLG" header, then
// length-prefixed CRC-32C-framed records at stable offsets — the fixed
// framing keeps the file mmap-friendly even though reads here go
// through the in-memory index). Recovery mirrors the SFG store and the
// sweep journal: a torn final record (crash mid-append) is truncated
// away and its point simply recomputed; a mid-file checksum mismatch
// quarantines the damaged file for post-mortem and rewrites a compacted
// log from the records that verified, so corruption is never served and
// never silently deleted.
package resultstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Key identifies one finished simulation exactly: the fingerprint of
// the full applied microarchitecture configuration (obs.Fingerprint of
// the cpu.Config, the same fingerprint run manifests carry) plus every
// input the metrics are a deterministic function of — the profile
// coordinates, the reduction factor and the generation seed. Two equal
// keys denote byte-identical metrics; any differing field is a miss.
//
// Dims carries the window/width knobs of the applied configuration in
// the clear. They are implied by ConfigFP (the fingerprint covers the
// whole config), so they change nothing about exact-hit identity; they
// are stored so a later life can re-derive surrogate training features
// from the log without the original cpu.Config in hand.
type Key struct {
	ConfigFP  string `json:"config_fp"` // obs.Fingerprint of the applied cpu.Config
	Workload  string `json:"workload"`
	K         int    `json:"k"`
	N         uint64 `json:"n"`
	Seed      uint64 `json:"seed"`
	Immediate bool   `json:"immediate,omitempty"`
	Shards    int    `json:"shards,omitempty"`
	Red       uint64 `json:"red"`
	SimSeed   uint64 `json:"sim_seed"`
	Dims      Dims   `json:"dims"`
}

// Dims is the design-space position of a result's configuration — the
// knobs sweeps vary and the surrogate regresses over.
type Dims struct {
	RUU    int `json:"ruu"`
	LSQ    int `json:"lsq"`
	Decode int `json:"decode"`
	Issue  int `json:"issue"`
	Commit int `json:"commit"`
	IFQ    int `json:"ifq"`
}

// Context identifies everything about a key except its configuration:
// the profile coordinates plus the synthetic-trace identity. Surrogate
// models interpolate only within one context — across configurations of
// the same workload profile — never across workloads or seeds.
func (k Key) Context() string {
	return fmt.Sprintf("%s|k=%d|n=%d|seed=%d|imm=%t|shards=%d|r=%d|sim=%d",
		k.Workload, k.K, k.N, k.Seed, k.Immediate, k.Shards, k.Red, k.SimSeed)
}

// Record is one persisted result: its key and the metrics JSON exactly
// as first marshalled, so replays and lookups round-trip the same bytes
// the journal and the cluster wire format do.
type Record struct {
	Key     Key
	Metrics core.Metrics
}

var (
	logMagic   = [4]byte{'R', 'S', 'L', 'G'}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

const (
	logVersion    = 1
	logName       = "results.log"
	quarantineDir = "quarantine"
	headerLen     = 8 // magic + version
	// frameOverhead is the fixed per-record framing: key length, metrics
	// length and the CRC-32C over both sections.
	frameOverhead = 12
	// maxSectionLen rejects absurd length fields before allocating: no
	// key or metrics blob approaches a megabyte.
	maxSectionLen = 1 << 20
)

// ErrCorruptRecord wraps every frame that fails validation during
// decode — bad lengths, short sections, checksum mismatch, unparseable
// JSON.
var ErrCorruptRecord = errors.New("resultstore: corrupt record")

// EncodeRecord frames one record for the log: key length, metrics
// length, CRC-32C over both JSON sections, then the sections.
func EncodeRecord(key Key, metrics json.RawMessage) ([]byte, error) {
	keyJSON, err := json.Marshal(key)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, frameOverhead, frameOverhead+len(keyJSON)+len(metrics))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(keyJSON)))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(metrics)))
	buf = append(buf, keyJSON...)
	buf = append(buf, metrics...)
	binary.LittleEndian.PutUint32(buf[8:12], crc32.Checksum(buf[frameOverhead:], castagnoli))
	return buf, nil
}

// DecodeRecord parses one framed record from the front of data,
// returning the record, its raw metrics bytes and the frame's total
// length. io.ErrUnexpectedEOF reports a frame extending past the data
// (a torn tail); ErrCorruptRecord reports a frame that is wrong rather
// than short.
func DecodeRecord(data []byte) (Record, json.RawMessage, int, error) {
	var rec Record
	if len(data) < frameOverhead {
		return rec, nil, 0, io.ErrUnexpectedEOF
	}
	keyLen := binary.LittleEndian.Uint32(data[0:4])
	metLen := binary.LittleEndian.Uint32(data[4:8])
	if keyLen == 0 || keyLen > maxSectionLen || metLen == 0 || metLen > maxSectionLen {
		return rec, nil, 0, fmt.Errorf("%w: section lengths %d/%d", ErrCorruptRecord, keyLen, metLen)
	}
	total := frameOverhead + int(keyLen) + int(metLen)
	if len(data) < total {
		return rec, nil, 0, io.ErrUnexpectedEOF
	}
	sum := binary.LittleEndian.Uint32(data[8:12])
	body := data[frameOverhead:total]
	if got := crc32.Checksum(body, castagnoli); got != sum {
		return rec, nil, 0, fmt.Errorf("%w: checksum %08x, frame says %08x", ErrCorruptRecord, got, sum)
	}
	if err := json.Unmarshal(body[:keyLen], &rec.Key); err != nil {
		return rec, nil, 0, fmt.Errorf("%w: key: %v", ErrCorruptRecord, err)
	}
	raw := json.RawMessage(body[keyLen:])
	if err := json.Unmarshal(raw, &rec.Metrics); err != nil {
		return rec, nil, 0, fmt.Errorf("%w: metrics: %v", ErrCorruptRecord, err)
	}
	return rec, raw, total, nil
}

// Store is the durable result log plus its in-memory exact-hit index.
// Lookups take a read lock only (microseconds under concurrency);
// appends serialise on the write lock and fsync before indexing, so a
// record served to anyone has already survived a crash.
type Store struct {
	dir  string
	path string

	mu      sync.RWMutex
	f       *os.File
	index   map[Key]core.Metrics
	records int

	// Recovery and activity counters (guarded by mu, except the lookup
	// counters, which stay off the exact-hit fast path's read lock).
	recovered   int // records replayed from a previous life
	tornDropped int // torn final frames truncated at open
	quarantined int // damaged files moved aside at open
	appends     int
	appendFails int
	hits        atomic.Uint64
	misses      atomic.Uint64
}

// Open opens (creating if needed) the result store rooted at dir,
// replaying the existing log into the index. Damaged logs are recovered
// as the package comment describes; Open fails only on filesystem
// errors.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("resultstore: creating store: %w", err)
		}
	}
	st := &Store{
		dir:   dir,
		path:  filepath.Join(dir, logName),
		index: make(map[Key]core.Metrics),
	}
	if err := st.replay(); err != nil {
		return nil, err
	}
	return st, nil
}

// replay loads the existing log. good holds the verified frames'
// re-encodable content in file order so a damaged log can be compacted
// without trusting anything past the first bad frame.
func (st *Store) replay() error {
	data, err := os.ReadFile(st.path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return st.create()
	case err != nil:
		return fmt.Errorf("resultstore: reading log: %w", err)
	}
	if len(data) < headerLen || *(*[4]byte)(data[:4]) != logMagic ||
		binary.LittleEndian.Uint32(data[4:8]) != logVersion {
		// Not our log at all: quarantine whole and start fresh.
		st.quarantine()
		return st.create()
	}
	off := headerLen
	goodEnd := off
	var bad error
	for off < len(data) {
		rec, _, n, err := DecodeRecord(data[off:])
		if err != nil {
			bad = err
			break
		}
		if _, dup := st.index[rec.Key]; !dup {
			st.index[rec.Key] = rec.Metrics
			st.records++
		}
		off += n
		goodEnd = off
	}
	st.recovered = st.records
	switch {
	case bad == nil:
		// Clean log: append in place.
		return st.openAppend()
	case errors.Is(bad, io.ErrUnexpectedEOF):
		// Torn final record (crash mid-append): truncate the tail; the
		// verified prefix is untouched.
		st.tornDropped++
		if err := os.Truncate(st.path, int64(goodEnd)); err != nil {
			return fmt.Errorf("resultstore: truncating torn tail: %w", err)
		}
		return st.openAppend()
	default:
		// Mid-file corruption: preserve the damaged file for post-mortem,
		// rewrite a fresh log from the records that verified. Nothing past
		// the first bad frame is trusted — without a resync marker the
		// frame boundaries beyond it are meaningless.
		st.quarantine()
		return st.rewrite()
	}
}

// create writes a fresh log header and opens it for appending.
func (st *Store) create() error {
	var hdr [headerLen]byte
	copy(hdr[:4], logMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], logVersion)
	if err := os.WriteFile(st.path, hdr[:], 0o644); err != nil {
		return fmt.Errorf("resultstore: creating log: %w", err)
	}
	return st.openAppend()
}

// rewrite compacts the index into a fresh log via temp file + rename,
// then opens it for appending.
func (st *Store) rewrite() error {
	var buf bytes.Buffer
	var hdr [headerLen]byte
	copy(hdr[:4], logMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], logVersion)
	buf.Write(hdr[:])
	for key, m := range st.index {
		raw, err := json.Marshal(m)
		if err != nil {
			return err
		}
		frame, err := EncodeRecord(key, raw)
		if err != nil {
			return err
		}
		buf.Write(frame)
	}
	tmp, err := os.CreateTemp(st.dir, ".tmp-results-*")
	if err != nil {
		return err
	}
	cleanup := func(e error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return e
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), st.path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return st.openAppend()
}

func (st *Store) openAppend() error {
	f, err := os.OpenFile(st.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("resultstore: opening log for append: %w", err)
	}
	st.f = f
	return nil
}

// quarantine moves the current log aside (best-effort, uniquely named
// so repeated recoveries never clobber evidence) and counts it.
func (st *Store) quarantine() {
	dest := filepath.Join(st.dir, quarantineDir, logName)
	for i := 1; ; i++ {
		if _, err := os.Stat(dest); errors.Is(err, os.ErrNotExist) {
			break
		}
		dest = filepath.Join(st.dir, quarantineDir, fmt.Sprintf("%s.%d", logName, i))
	}
	if err := os.Rename(st.path, dest); err == nil {
		st.quarantined++
	}
}

// Get returns the stored metrics for key. The returned metrics were
// decoded from the same JSON the record was written with, so re-serving
// them is byte-identical to the original simulation's response.
func (st *Store) Get(key Key) (core.Metrics, bool) {
	st.mu.RLock()
	m, ok := st.index[key]
	st.mu.RUnlock()
	if ok {
		st.hits.Add(1)
	} else {
		st.misses.Add(1)
	}
	return m, ok
}

// Put appends one finished result, fsyncing before it becomes visible
// to Get: PutBatch of one.
func (st *Store) Put(key Key, m core.Metrics) error {
	return st.PutBatch([]Key{key}, []core.Metrics{m})
}

// PutBatch appends a batch of finished results (ms[k] belongs to
// keys[k]) as one group commit: every new frame goes out in a single
// write and a single fsync, and only then do the keys become visible to
// Get, so nothing served has not already survived a crash. Keys already
// present — in the index or earlier in the batch — are skipped (results
// are deterministic: the incumbent is identical). A failed commit leaves
// the index untouched for the whole batch — its points are simply
// recomputed in a future life — and counts one append failure per
// record for /metrics.
func (st *Store) PutBatch(keys []Key, ms []core.Metrics) error {
	if len(keys) != len(ms) {
		return fmt.Errorf("resultstore: %d keys for %d results", len(keys), len(ms))
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var buf []byte
	fresh := make(map[Key]int, len(keys)) // key -> batch position of its first occurrence
	for k, key := range keys {
		if _, ok := st.index[key]; ok {
			continue
		}
		if _, dup := fresh[key]; dup {
			continue
		}
		raw, err := json.Marshal(ms[k])
		if err != nil {
			return err
		}
		frame, err := EncodeRecord(key, raw)
		if err != nil {
			return err
		}
		if buf == nil {
			// Frames are near-equal in length: size the commit once.
			buf = make([]byte, 0, (len(frame)+len(frame)/8)*(len(keys)-k))
		}
		fresh[key] = k
		buf = append(buf, frame...)
	}
	if len(fresh) == 0 {
		return nil
	}
	if _, err := st.f.Write(buf); err != nil {
		st.appendFails += len(fresh)
		return err
	}
	if err := st.f.Sync(); err != nil {
		st.appendFails += len(fresh)
		return err
	}
	for key, k := range fresh {
		st.index[key] = ms[k]
	}
	st.records += len(fresh)
	st.appends += len(fresh)
	return nil
}

// Range calls fn for every indexed record until fn returns false. It
// snapshots under the read lock first so fn (which may itself consult
// the store) never runs with the lock held.
func (st *Store) Range(fn func(key Key, m core.Metrics) bool) {
	st.mu.RLock()
	recs := make([]Record, 0, len(st.index))
	for k, m := range st.index {
		recs = append(recs, Record{Key: k, Metrics: m})
	}
	st.mu.RUnlock()
	for _, r := range recs {
		if !fn(r.Key, r.Metrics) {
			return
		}
	}
}

// Close releases the log file. The log remains on disk as the next
// life's warm index.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	err := st.f.Close()
	st.f = nil
	return err
}

// Stats is a point-in-time snapshot of store contents and activity.
type Stats struct {
	Dir         string `json:"dir"`
	Records     int    `json:"records"`
	Recovered   int    `json:"recovered"`
	TornDropped int    `json:"torn_dropped"`
	Quarantined int    `json:"quarantined"`
	Appends     int    `json:"appends"`
	AppendFails int    `json:"append_failures"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
}

// Stats reports store contents and activity.
func (st *Store) Stats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return Stats{
		Dir:         st.dir,
		Records:     st.records,
		Recovered:   st.recovered,
		TornDropped: st.tornDropped,
		Quarantined: st.quarantined,
		Appends:     st.appends,
		AppendFails: st.appendFails,
		Hits:        st.hits.Load(),
		Misses:      st.misses.Load(),
	}
}
