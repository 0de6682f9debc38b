package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/sfg"
)

// Fault-injection sites honoured by the durability layer. Production
// behaviour is unchanged when no fault.Injector is configured.
const (
	// SiteStoreWrite fails a durable profile write before it reaches
	// disk (the temp file is cleaned up; the cache still serves).
	SiteStoreWrite = "store.write"
	// SiteStoreCorrupt flips a payload byte of a durable profile write
	// after its checksum is computed, planting a corrupt file that the
	// next load must quarantine.
	SiteStoreCorrupt = "store.corrupt"
	// SiteJournalAppend fires once per sweep-journal commit (one
	// AppendBatch that has new points). A failure drops the whole
	// batch: its results are still returned, they are just recomputed
	// on resume.
	SiteJournalAppend = "journal.append"
	// SiteProfileJob, SiteSimulateJob and SiteSweepJob run at the top
	// of the respective pool jobs: errors, panics and delays there
	// exercise retry, panic isolation and queue back-pressure.
	SiteProfileJob  = "job.profile"
	SiteSimulateJob = "job.simulate"
	SiteSweepJob    = "job.sweep"
)

// ErrCorruptProfile wraps every durable-store load failure caused by a
// damaged file. The damaged file has already been quarantined when this
// is returned; callers re-profile and overwrite.
var ErrCorruptProfile = errors.New("service: corrupt profile file")

// ErrProfileVersion reports an envelope written in another storeVersion:
// its payload is not in this build's profile format. The store treats
// an older file as a miss that the next Save overwrites, and a cluster
// fetch gives up on the peer at once, since it would answer the same
// way on every retry.
var ErrProfileVersion = errors.New("service: profile envelope from another store version")

// errOlderVersion is ErrProfileVersion for a well-formed envelope of an
// earlier storeVersion (every check but the payload parse passed).
var errOlderVersion = fmt.Errorf("%w (an earlier one)", ErrProfileVersion)

// Durable store file envelope: magic, format version, the profile key
// (so a renamed or colliding file cannot impersonate another profile),
// and a CRC-32C over the profile payload so torn or bit-rotted writes
// are detected before sfg.Load ever parses them. Every version so far
// shares this layout and differs only in the payload's format, so an
// older envelope is checked in full before it is reported as a version
// miss.
var (
	storeMagic = [4]byte{'S', 'F', 'G', 'S'}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

const (
	storeVersion    = 2
	quarantineDir   = "quarantine"
	sweepJournalDir = "sweeps"
	maxStoreKeyLen  = 1 << 12
)

// Store persists statistical flow graphs under one directory so a
// restarted daemon serves profiles it measured in a previous life
// instead of re-paying the dominant profiling cost. Writes are atomic
// (temp file + rename) and checksummed; a file that fails any envelope
// check on load is renamed into the quarantine/ subdirectory — never
// served, never silently deleted — and the caller re-profiles.
type Store struct {
	dir    string
	faults *fault.Injector

	loads        atomic.Uint64 // durable hits
	misses       atomic.Uint64 // no file on disk, or an older-version one
	saves        atomic.Uint64
	saveFailures atomic.Uint64
	quarantined  atomic.Uint64
}

// NewStore opens (creating if needed) a durable profile store rooted at
// dir. faults may be nil.
func NewStore(dir string, faults *fault.Injector) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, quarantineDir), filepath.Join(dir, sweepJournalDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("service: creating store: %w", err)
		}
	}
	return &Store{dir: dir, faults: faults}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// JournalPath returns the on-disk path for a sweep journal with the
// given identity.
func (st *Store) JournalPath(id string) string {
	return filepath.Join(st.dir, sweepJournalDir, id+".journal")
}

// Path returns the file a key's profile lives at: a human-readable
// prefix for operators plus a hash of the exact key for uniqueness.
func (st *Store) Path(key ProfileKey) string {
	upd := "del"
	if key.Immediate {
		upd = "imm"
	}
	wl := make([]byte, 0, len(key.Workload))
	for i := 0; i < len(key.Workload) && i < 32; i++ {
		c := key.Workload[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '.' || c == '_' {
			wl = append(wl, c)
		} else {
			wl = append(wl, '_')
		}
	}
	h := fnv.New64a()
	keyJSON, _ := json.Marshal(key)
	h.Write(keyJSON)
	name := fmt.Sprintf("%s-k%d-n%d-s%d-%s-%016x.sfg", wl, key.K, key.N, key.Seed, upd, h.Sum64())
	return filepath.Join(st.dir, name)
}

// envelopeParts encodes a profile into the envelope's two variable
// sections: the marshalled key and the profile payload.
func envelopeParts(key ProfileKey, g *sfg.Graph) (keyJSON, body []byte, err error) {
	var payload bytes.Buffer
	if err := g.Save(&payload); err != nil {
		return nil, nil, fmt.Errorf("service: encoding profile: %w", err)
	}
	keyJSON, err = json.Marshal(key)
	if err != nil {
		return nil, nil, err
	}
	return keyJSON, payload.Bytes(), nil
}

// assembleEnvelope lays out the checksummed envelope: magic, version,
// key, payload length, CRC-32C, payload.
func assembleEnvelope(keyJSON, body []byte, sum uint32) []byte {
	var env bytes.Buffer
	env.Grow(len(keyJSON) + len(body) + 24)
	env.Write(storeMagic[:])
	binary.Write(&env, binary.LittleEndian, uint32(storeVersion))
	binary.Write(&env, binary.LittleEndian, uint32(len(keyJSON)))
	env.Write(keyJSON)
	binary.Write(&env, binary.LittleEndian, uint64(len(body)))
	binary.Write(&env, binary.LittleEndian, sum)
	env.Write(body)
	return env.Bytes()
}

// EncodeProfileEnvelope renders a profile in the durable store's
// checksummed envelope format. The same bytes serve as the on-disk file
// and as the peer-to-peer wire format of the cluster tier: any receiver
// validates magic, version, embedded key and CRC before parsing the
// payload, so a truncated or bit-flipped transfer is detected exactly
// like a torn disk write.
func EncodeProfileEnvelope(key ProfileKey, g *sfg.Graph) ([]byte, error) {
	keyJSON, body, err := envelopeParts(key, g)
	if err != nil {
		return nil, err
	}
	return assembleEnvelope(keyJSON, body, crc32.Checksum(body, castagnoli)), nil
}

// Save durably persists a profile: the envelope is assembled in memory,
// written to a temp file in the same directory, fsynced, and renamed
// over the final path, so a crash at any instant leaves either the old
// file or the new one — never a partial. Save failures are counted and
// returned but are non-fatal to serving: the in-memory cache still
// holds the graph.
func (st *Store) Save(key ProfileKey, g *sfg.Graph) (err error) {
	defer func() {
		if err != nil {
			st.saveFailures.Add(1)
		}
	}()

	keyJSON, body, err := envelopeParts(key, g)
	if err != nil {
		return err
	}
	sum := crc32.Checksum(body, castagnoli)
	if st.faults.Fire(SiteStoreCorrupt) != nil && len(body) > 0 {
		// Checksum already taken: the flipped byte lands on disk and
		// must be caught by the next Load.
		body = append([]byte(nil), body...)
		body[len(body)/2] ^= 0xFF
	}
	if ferr := st.faults.Fire(SiteStoreWrite); ferr != nil {
		return fmt.Errorf("service: store write: %w", ferr)
	}
	env := bytes.NewBuffer(assembleEnvelope(keyJSON, body, sum))

	f, err := os.CreateTemp(st.dir, ".tmp-profile-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(e error) error {
		f.Close()
		os.Remove(tmp)
		return e
	}
	if _, err := f.Write(env.Bytes()); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, st.Path(key)); err != nil {
		os.Remove(tmp)
		return err
	}
	st.saves.Add(1)
	return nil
}

// Load reads the key's durable profile. A missing file returns
// os.ErrNotExist. A file an earlier build wrote (an older storeVersion)
// is a miss too: it is reported as ErrProfileVersion and left in place
// for the next Save to overwrite. Any other damaged file, including one
// of an unknown version, is quarantined and reported as
// ErrCorruptProfile. The returned graph is validated but not frozen —
// the cache freezes before publication, same as a fresh profile.
func (st *Store) Load(key ProfileKey) (*sfg.Graph, error) {
	path := st.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			st.misses.Add(1)
		}
		return nil, err
	}
	_, g, err := DecodeProfileEnvelope(data, &key)
	if errors.Is(err, errOlderVersion) {
		st.misses.Add(1)
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	if err != nil {
		st.quarantine(path)
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptProfile, filepath.Base(path), err)
	}
	st.loads.Add(1)
	return g, nil
}

// DecodeProfileEnvelope validates and parses an envelope. A non-nil
// want additionally requires the embedded key to match (how Load rejects
// renamed or impersonating files); with a nil want the embedded key is
// returned for the caller to judge (how a cluster peer accepts an
// offered replica). An envelope of an earlier or later storeVersion
// reports ErrProfileVersion (an earlier one only once the rest of the
// envelope has checked out).
func DecodeProfileEnvelope(data []byte, want *ProfileKey) (ProfileKey, *sfg.Graph, error) {
	var key ProfileKey
	r := bytes.NewReader(data)
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || magic != storeMagic {
		return key, nil, errors.New("bad magic")
	}
	var version, keyLen uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil || version == 0 {
		return key, nil, fmt.Errorf("unsupported version %d", version)
	}
	if version > storeVersion {
		return key, nil, fmt.Errorf("%w: version %d is newer than this build's %d", ErrProfileVersion, version, storeVersion)
	}
	if err := binary.Read(r, binary.LittleEndian, &keyLen); err != nil || keyLen > maxStoreKeyLen {
		return key, nil, errors.New("bad key length")
	}
	keyJSON := make([]byte, keyLen)
	if _, err := io.ReadFull(r, keyJSON); err != nil {
		return key, nil, errors.New("truncated key")
	}
	if want != nil {
		wantKey, _ := json.Marshal(*want)
		if !bytes.Equal(keyJSON, wantKey) {
			return key, nil, fmt.Errorf("key mismatch: envelope holds %s", keyJSON)
		}
	}
	if err := json.Unmarshal(keyJSON, &key); err != nil {
		return key, nil, fmt.Errorf("unparseable embedded key: %v", err)
	}
	var bodyLen uint64
	var sum uint32
	if err := binary.Read(r, binary.LittleEndian, &bodyLen); err != nil {
		return key, nil, errors.New("truncated header")
	}
	if err := binary.Read(r, binary.LittleEndian, &sum); err != nil {
		return key, nil, errors.New("truncated header")
	}
	if bodyLen != uint64(r.Len()) {
		return key, nil, fmt.Errorf("payload length %d, envelope says %d", r.Len(), bodyLen)
	}
	body := data[len(data)-r.Len():]
	if got := crc32.Checksum(body, castagnoli); got != sum {
		return key, nil, fmt.Errorf("checksum %08x, envelope says %08x", got, sum)
	}
	if version < storeVersion {
		return key, nil, fmt.Errorf("%w: version %d, this build reads %d", errOlderVersion, version, storeVersion)
	}
	g, err := sfg.Load(bytes.NewReader(body))
	return key, g, err
}

// holdsCurrent reports whether key's file exists with this build's
// storeVersion in its header. It reads only the header: Load still
// checks the rest.
func (st *Store) holdsCurrent(key ProfileKey) bool {
	f, err := os.Open(st.Path(key))
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return false
	}
	return [4]byte(hdr[:4]) == storeMagic && binary.LittleEndian.Uint32(hdr[4:]) == storeVersion
}

// quarantine moves a damaged file aside so it is preserved for
// post-mortem but never served again. Best-effort: if the rename fails
// the file stays, and the next load attempt repeats the quarantine.
func (st *Store) quarantine(path string) {
	dest := filepath.Join(st.dir, quarantineDir, filepath.Base(path))
	if err := os.Rename(path, dest); err == nil {
		st.quarantined.Add(1)
	}
}

// StoreStats is a point-in-time snapshot of durable-store activity.
type StoreStats struct {
	Dir          string `json:"dir"`
	Loads        uint64 `json:"loads"`
	Misses       uint64 `json:"misses"`
	Saves        uint64 `json:"saves"`
	SaveFailures uint64 `json:"save_failures"`
	Quarantined  uint64 `json:"quarantined"`
}

// Stats reports durable-store activity.
func (st *Store) Stats() StoreStats {
	return StoreStats{
		Dir:          st.dir,
		Loads:        st.loads.Load(),
		Misses:       st.misses.Load(),
		Saves:        st.saves.Load(),
		SaveFailures: st.saveFailures.Load(),
		Quarantined:  st.quarantined.Load(),
	}
}
