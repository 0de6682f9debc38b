package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/sfg"
)

// SweepFingerprint identifies a sweep for checkpoint compatibility: the
// profile's content (its canonical Save bytes, so a cache key and a
// CLI-loaded file of one graph agree, and two graphs of one shape do
// not), the base configuration, the exact point list, and the (R, seed)
// pair. Two runs with equal fingerprints compute identical results, so
// their checkpoints are interchangeable; anything else must not share
// one.
func SweepFingerprint(g *sfg.Graph, base cpu.Config, points []SweepPoint, r, seed uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "sweep-v%d|graph:", journalVersion)
	if err := g.Save(h); err != nil {
		// Only a graph Validate rejects fails to encode; hashing the
		// reason keeps the fingerprint deterministic.
		fmt.Fprintf(h, "unencodable %v", err)
	}
	fmt.Fprintf(h, "|cfg:%+v|r=%d|seed=%d|points=%d|", base, r, seed, len(points))
	for _, p := range points {
		fmt.Fprintf(h, "%+v|", p)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

const journalVersion = 1

// journalLine is one record of the append-only sweep journal. Metrics
// stay a raw message so the CRC covers the exact bytes written, not a
// re-marshalling.
type journalLine struct {
	Type    string          `json:"type"` // "header" or "point"
	Version int             `json:"version,omitempty"`
	ID      string          `json:"id,omitempty"`
	Points  int             `json:"points,omitempty"`
	Index   int             `json:"index"`
	Metrics json.RawMessage `json:"metrics,omitempty"`
	CRC     uint32          `json:"crc,omitempty"`
}

func pointCRC(index int, metrics []byte) uint32 {
	sum := crc32.Checksum([]byte(strconv.Itoa(index)+":"), castagnoli)
	return crc32.Update(sum, castagnoli, metrics)
}

// SweepJournal checkpoints a design-space sweep: every completed point
// is appended as one self-checksummed JSON line, a batch of points per
// write and fsync, so a crash, OOM-kill or cancellation loses at most
// the in-flight points and one uncommitted batch.
// Opening an existing journal replays it — tolerating a torn final
// write and quarantine-dropping any line that fails its checksum — and
// the next run recomputes only what is missing. Because each point's
// metrics are a deterministic function of the sweep identity, a resumed
// sweep is byte-identical to an uninterrupted one.
type SweepJournal struct {
	path    string
	id      string
	npoints int
	faults  *fault.Injector

	mu      sync.Mutex
	f       *os.File
	done    map[int]core.Metrics
	resumed int // points recovered from a previous run
	dropped int // torn or corrupt lines discarded at open
}

// ErrJournalMismatch reports a journal written by a sweep with a
// different identity (grid, configuration, profile or seeds).
var ErrJournalMismatch = fmt.Errorf("service: sweep journal belongs to a different sweep")

// OpenSweepJournal opens (creating if absent) the checkpoint journal at
// path for a sweep with the given identity and point count. Existing
// contents are validated: damaged lines are dropped (and recomputed
// later). A clean journal — replay dropped nothing and the file ends in
// a newline — is reopened for appending in place; anything else is
// compacted by an atomic rewrite, so appends never land after a torn
// tail. faults may be nil.
func OpenSweepJournal(path, id string, npoints int, faults *fault.Injector) (*SweepJournal, error) {
	j := &SweepJournal{path: path, id: id, npoints: npoints, faults: faults, done: make(map[int]core.Metrics)}
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		// Fresh journal below.
	case err != nil:
		return nil, fmt.Errorf("service: opening sweep journal: %w", err)
	default:
		if err := j.replay(data); err != nil {
			return nil, err
		}
		j.resumed = len(j.done)
		if j.dropped == 0 && len(data) > 0 && data[len(data)-1] == '\n' {
			// Clean: append in place. The fsync (nearly free when the last
			// writer already synced) makes durable any replayed line a
			// crashed writer wrote but never synced, before Done serves it.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err == nil {
				if err = f.Sync(); err != nil {
					f.Close()
				}
			}
			if err != nil {
				return nil, fmt.Errorf("service: opening sweep journal: %w", err)
			}
			j.f = f
			return j, nil
		}
	}
	if err := j.rewrite(); err != nil {
		return nil, err
	}
	return j, nil
}

// replay parses an existing journal body into j.done.
func (j *SweepJournal) replay(data []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	first := true
	for sc.Scan() {
		var line journalLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			// Torn write (crash mid-append) or stray garbage: drop the
			// line; its point is simply recomputed.
			j.dropped++
			continue
		}
		if first {
			first = false
			if line.Type != "header" || line.Version != journalVersion {
				return fmt.Errorf("%w: unrecognised header", ErrJournalMismatch)
			}
			if line.ID != j.id || line.Points != j.npoints {
				return fmt.Errorf("%w: journal id %s over %d points, want id %s over %d points",
					ErrJournalMismatch, line.ID, line.Points, j.id, j.npoints)
			}
			continue
		}
		if line.Type != "point" || line.Index < 0 || line.Index >= j.npoints ||
			line.CRC != pointCRC(line.Index, line.Metrics) {
			j.dropped++
			continue
		}
		var m core.Metrics
		if err := json.Unmarshal(line.Metrics, &m); err != nil {
			j.dropped++
			continue
		}
		if prev, ok := j.done[line.Index]; ok {
			if prev != m {
				return fmt.Errorf("service: sweep journal holds two different results for point %d", line.Index)
			}
			continue // benign duplicate
		}
		j.done[line.Index] = m
	}
	if first && len(data) > 0 {
		return fmt.Errorf("%w: no parseable header", ErrJournalMismatch)
	}
	return sc.Err()
}

// rewrite compacts the journal to header + known-good points via a temp
// file and rename, then reopens it for appending.
func (j *SweepJournal) rewrite() error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(journalLine{Type: "header", Version: journalVersion, ID: j.id, Points: j.npoints}); err != nil {
		return err
	}
	for i := 0; i < j.npoints; i++ {
		m, ok := j.done[i]
		if !ok {
			continue
		}
		line, err := encodePoint(i, m)
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	tmp, err := os.CreateTemp(filepath.Dir(j.path), ".tmp-journal-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f = f
	return nil
}

func encodePoint(index int, m core.Metrics) ([]byte, error) {
	raw, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return json.Marshal(journalLine{Type: "point", Index: index, Metrics: raw, CRC: pointCRC(index, raw)})
}

// Append checkpoints one completed point: AppendBatch of one.
func (j *SweepJournal) Append(index int, m core.Metrics) error {
	return j.AppendBatch([]int{index}, []core.Metrics{m})
}

// AppendBatch checkpoints a batch of completed points (ms[k] belongs to
// indices[k]) as one group commit: the new lines go out in a single
// write and a single fsync, and only then do the points appear in Done.
// Points already checkpointed (a resume raced a recompute) are skipped,
// and a batch with nothing new commits nothing. The SiteJournalAppend
// fault site fires once per commit. A failed commit drops the whole
// batch — its points are recomputed on resume — and returns its error;
// the sweep itself tolerates it.
func (j *SweepJournal) AppendBatch(indices []int, ms []core.Metrics) error {
	if len(indices) != len(ms) {
		return fmt.Errorf("service: journal append: %d indices for %d results", len(indices), len(ms))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var buf []byte
	fresh := make(map[int]int, len(indices)) // point index -> batch position
	for k, i := range indices {
		if _, ok := j.done[i]; ok {
			continue
		}
		if _, dup := fresh[i]; dup {
			continue
		}
		line, err := encodePoint(i, ms[k])
		if err != nil {
			return err
		}
		if buf == nil {
			// Lines are near-equal in length: size the commit once.
			buf = make([]byte, 0, (len(line)+len(line)/8)*(len(indices)-k))
		}
		fresh[i] = k
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	if len(fresh) == 0 {
		return nil
	}
	if err := j.faults.Fire(SiteJournalAppend); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	if _, err := j.f.Write(buf); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	for i, k := range fresh {
		j.done[i] = ms[k]
	}
	return nil
}

// Done returns a copy of the checkpointed results by point index.
func (j *SweepJournal) Done() map[int]core.Metrics {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[int]core.Metrics, len(j.done))
	for i, m := range j.done {
		out[i] = m
	}
	return out
}

// Resumed reports how many points were recovered from a previous run at
// open time; Dropped reports how many damaged lines were discarded.
func (j *SweepJournal) Resumed() int { return j.resumed }
func (j *SweepJournal) Dropped() int { return j.dropped }

// Close releases the journal file. The journal remains on disk: a
// completed journal doubles as a durable result cache, and a partial
// one is the resume point.
func (j *SweepJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
