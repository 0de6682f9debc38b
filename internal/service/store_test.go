package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
)

func newTestStore(t *testing.T, faults *fault.Injector) *Store {
	t.Helper()
	st, err := NewStore(t.TempDir(), faults)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreRoundTrip(t *testing.T) {
	st := newTestStore(t, nil)
	g := testGraph(t)
	k := key("vpr")

	if _, err := st.Load(k); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("load before save: %v", err)
	}
	if err := st.Save(k, g); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(k)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() ||
		got.TotalInstructions != g.TotalInstructions {
		t.Errorf("round trip changed the graph: %d/%d/%d vs %d/%d/%d",
			got.NumNodes(), got.NumEdges(), got.TotalInstructions,
			g.NumNodes(), g.NumEdges(), g.TotalInstructions)
	}
	if s := st.Stats(); s.Saves != 1 || s.Loads != 1 || s.Misses != 1 || s.Quarantined != 0 {
		t.Errorf("stats %+v", s)
	}
	// No temp files left behind.
	if leftovers, _ := filepath.Glob(filepath.Join(st.Dir(), ".tmp-*")); len(leftovers) != 0 {
		t.Errorf("temp files leaked: %v", leftovers)
	}
}

func TestStorePathIsSanitisedAndUnique(t *testing.T) {
	st := newTestStore(t, nil)
	a := st.Path(ProfileKey{Workload: "../../etc/passwd", K: 1, N: 10, Seed: 1})
	if filepath.Dir(a) != st.Dir() {
		t.Fatalf("hostile workload name escaped the store dir: %s", a)
	}
	if strings.ContainsAny(filepath.Base(a), "/\\") {
		t.Fatalf("separator survived sanitisation: %s", a)
	}
	// Keys differing only in a sanitised-away character must still map
	// to different files (the key hash disambiguates).
	b := st.Path(ProfileKey{Workload: ".././etc/passwd", K: 1, N: 10, Seed: 1})
	if a == b {
		t.Errorf("distinct keys share a path: %s", a)
	}
}

// TestStoreQuarantinesCorruption flips single bytes across the file and
// asserts every corruption is caught by the envelope, moved aside, and
// never served.
func TestStoreQuarantinesCorruption(t *testing.T) {
	st := newTestStore(t, nil)
	g := testGraph(t)
	k := key("vpr")
	if err := st.Save(k, g); err != nil {
		t.Fatal(err)
	}
	path := st.Path(k)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, offset := range []int{0, 5, len(orig) / 2, len(orig) - 1} {
		bad := append([]byte(nil), orig...)
		bad[offset] ^= 0xFF
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Load(k); !errors.Is(err, ErrCorruptProfile) {
			t.Fatalf("byte %d flipped, load returned %v", offset, err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("corrupt file still in place after byte %d flip", offset)
		}
		quarantined := filepath.Join(st.Dir(), quarantineDir, filepath.Base(path))
		if _, err := os.Stat(quarantined); err != nil {
			t.Fatalf("corrupt file not preserved in quarantine: %v", err)
		}
	}
	// Truncation is corruption too.
	if err := os.WriteFile(path, orig[:len(orig)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(k); !errors.Is(err, ErrCorruptProfile) {
		t.Fatalf("truncated file served: %v", err)
	}
	if got := st.Stats().Quarantined; got != 5 {
		t.Errorf("quarantined %d files, want 5", got)
	}
	// A re-save heals the slot.
	if err := st.Save(k, g); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(k); err != nil {
		t.Errorf("load after heal: %v", err)
	}
}

func TestStoreRejectsKeyMismatch(t *testing.T) {
	st := newTestStore(t, nil)
	g := testGraph(t)
	a, b := key("vpr"), key("gzip")
	if err := st.Save(a, g); err != nil {
		t.Fatal(err)
	}
	// Impersonate b's slot with a's file: the embedded key must win.
	if err := os.Rename(st.Path(a), st.Path(b)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(b); !errors.Is(err, ErrCorruptProfile) {
		t.Errorf("renamed file served under the wrong key: %v", err)
	}
}

func TestStoreInjectedWriteFailure(t *testing.T) {
	in := fault.New(1)
	in.Set(SiteStoreWrite, fault.Rule{Prob: 1, Times: 1, Err: fault.ErrInjected})
	st := newTestStore(t, in)
	g := testGraph(t)
	k := key("vpr")

	if err := st.Save(k, g); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected write failure not surfaced: %v", err)
	}
	if _, err := os.Stat(st.Path(k)); !errors.Is(err, os.ErrNotExist) {
		t.Error("failed save left a file behind")
	}
	if leftovers, _ := filepath.Glob(filepath.Join(st.Dir(), ".tmp-*")); len(leftovers) != 0 {
		t.Errorf("failed save leaked temp files: %v", leftovers)
	}
	if s := st.Stats(); s.SaveFailures != 1 {
		t.Errorf("stats %+v", s)
	}
	// Budget exhausted: the retried save succeeds.
	if err := st.Save(k, g); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(k); err != nil {
		t.Errorf("load after recovered save: %v", err)
	}
}

func TestStoreInjectedCorruptionIsQuarantinedOnLoad(t *testing.T) {
	in := fault.New(2)
	in.Set(SiteStoreCorrupt, fault.Rule{Prob: 1, Times: 1, Err: fault.ErrInjected})
	st := newTestStore(t, in)
	g := testGraph(t)
	k := key("vpr")

	if err := st.Save(k, g); err != nil {
		t.Fatal(err) // the corruption is silent, as on real bit-rot
	}
	if _, err := st.Load(k); !errors.Is(err, ErrCorruptProfile) {
		t.Fatalf("corrupted-on-write file served: %v", err)
	}
	if st.Stats().Quarantined != 1 {
		t.Errorf("stats %+v", st.Stats())
	}
}

// envelopeV1 lays out a version-1 envelope by hand, as an earlier build
// wrote it. The envelope layout is unchanged since version 1; only the
// payload format differs, so the payload is arbitrary bytes under a
// valid CRC.
func envelopeV1(t *testing.T, k ProfileKey) []byte {
	t.Helper()
	keyJSON, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte("a gob-encoded graph from an earlier build")
	b := append([]byte(nil), storeMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keyJSON)))
	b = append(b, keyJSON...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(body)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(body, castagnoli))
	return append(b, body...)
}

// TestStoreOlderVersionIsMiss pins what an upgraded daemon does with a
// store an earlier build wrote: a well-formed older-version file is a
// plain miss, left in place and not counted as quarantined, and the
// next Save overwrites it. Unknown versions stay corruption.
func TestStoreOlderVersionIsMiss(t *testing.T) {
	st := newTestStore(t, nil)
	g := testGraph(t)
	k := key("vpr")
	if err := os.WriteFile(st.Path(k), envelopeV1(t, k), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := st.Load(k)
	if !errors.Is(err, ErrProfileVersion) || errors.Is(err, ErrCorruptProfile) {
		t.Fatalf("version-1 file: load returned %v, want a version miss", err)
	}
	if _, err := os.Stat(st.Path(k)); err != nil {
		t.Fatalf("version-1 file moved: %v", err)
	}
	if s := st.Stats(); s.Quarantined != 0 || s.Misses != 1 || s.Loads != 0 {
		t.Errorf("stats after version-1 load %+v, want one miss", s)
	}
	if err := st.Save(k, g); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(k); err != nil {
		t.Fatalf("load after overwriting the version-1 file: %v", err)
	}

	// A version this build does not know, newer or never issued, is
	// damage: quarantined like any other envelope failure. A peer's
	// newer envelope still reports the version sentinel.
	env, err := EncodeProfileEnvelope(k, g)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []uint32{storeVersion + 1, 0} {
		bad := append([]byte(nil), env...)
		binary.LittleEndian.PutUint32(bad[4:8], v)
		if _, _, err := DecodeProfileEnvelope(bad, &k); errors.Is(err, ErrProfileVersion) != (v > storeVersion) {
			t.Errorf("version %d: decode returned %v", v, err)
		}
		if err := os.WriteFile(st.Path(k), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Load(k); !errors.Is(err, ErrCorruptProfile) {
			t.Errorf("version %d: load returned %v, want corruption", v, err)
		}
		if got := st.Stats().Quarantined; got != uint64(i+1) {
			t.Errorf("version %d: quarantined %d files, want %d", v, got, i+1)
		}
	}
}
