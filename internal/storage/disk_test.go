package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"optcc/internal/core"
)

// TestWALRoundTrip encodes every record kind and decodes it back through
// the frame scanner.
func TestWALRoundTrip(t *testing.T) {
	var enc walEncoder
	var log []byte
	log = append(log, enc.encodeCommit(5, []walWrite{{v: "a", val: -2}, {v: "b", val: 1 << 40}})...)
	log = append(log, enc.encodeSnapshot([]walWrite{{v: "x", val: 9}, {v: "y", val: -1}})...)
	log = append(log, enc.encodeCkpt(3, 7, 1<<20)...)

	var recs []walRec
	valid, clean := walScan(log, func(r walRec) { recs = append(recs, r) })
	if !clean || valid != len(log) {
		t.Fatalf("scan: valid=%d clean=%v, want %d true", valid, clean, len(log))
	}
	if len(recs) != 3 {
		t.Fatalf("decoded %d records, want 3", len(recs))
	}
	if r := recs[0]; r.kind != walCommit || r.tx != 5 || len(r.writes) != 2 || r.writes[0].v != "a" || r.writes[0].val != -2 || r.writes[1].val != 1<<40 {
		t.Errorf("commit record mismatch: %+v", r)
	}
	if r := recs[1]; r.kind != walSnapshot || len(r.writes) != 2 {
		t.Errorf("snapshot record mismatch: %+v", r)
	}
	if r := recs[2]; r.kind != walCkpt || r.ckpt != 3 || r.aseq != 7 || r.aoff != 1<<20 {
		t.Errorf("checkpoint marker mismatch: %+v", r)
	}
}

// TestWALScanStopsAtTear checks the scanner's failure modes — short frame,
// bad checksum, garbage payload, and a checksummed frame of a retired kind
// — all end the valid prefix exactly at the last good record.
func TestWALScanStopsAtTear(t *testing.T) {
	var enc walEncoder
	good := append([]byte(nil), enc.encodeCommit(1, []walWrite{{v: "x", val: 1}})...)
	good = append(good, enc.encodeCommit(2, []walWrite{{v: "y", val: 2}})...)

	tail := append([]byte(nil), enc.encodeCommit(3, []walWrite{{v: "z", val: 3}})...)
	// retired frames a well-formed, checksummed record with a tag of the
	// retired update (1) or abort (3) kinds.
	retired := func(kind byte) []byte {
		enc.reset()
		enc.buf = append(enc.buf, kind, 3)
		return append(append([]byte(nil), good...), enc.seal()...)
	}
	cases := map[string][]byte{
		"retired kind 1":   retired(1),
		"retired kind 3":   retired(3),
		"truncated header": append(append([]byte(nil), good...), tail[:4]...),
		"truncated body":   append(append([]byte(nil), good...), tail[:len(tail)-3]...),
		"flipped byte": func() []byte {
			b := append(append([]byte(nil), good...), tail...)
			b[len(good)+walHeaderSize+2] ^= 0xff
			return b
		}(),
		"zero garbage": append(append([]byte(nil), good...), make([]byte, 40)...),
	}
	for name, log := range cases {
		var n int
		valid, clean := walScan(log, func(walRec) { n++ })
		if clean || valid != len(good) || n != 2 {
			t.Errorf("%s: valid=%d clean=%v records=%d, want valid=%d clean=false records=2",
				name, valid, clean, n, len(good))
		}
	}
}

// FuzzWALScan holds the frame scanner and record decoder — the code that
// reads bytes back from disk — to their contract on arbitrary input: no
// panic; a valid prefix no longer than the input, clean exactly when it is
// the whole input; only the three live record kinds ever decoded (a frame
// tagged with the retired kinds 1 or 3 ends the prefix); and a re-scan of
// the valid prefix alone is clean and yields the same records. The seed
// corpus under testdata/fuzz/FuzzWALScan holds one record of each kind, a
// torn frame and frames of both retired kinds.
func FuzzWALScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []walRec
		valid, clean := walScan(data, func(r walRec) { recs = append(recs, r) })
		if valid < 0 || valid > len(data) || clean != (valid == len(data)) {
			t.Fatalf("scan of %d bytes: valid=%d clean=%v", len(data), valid, clean)
		}
		for _, r := range recs {
			if r.kind != walCommit && r.kind != walSnapshot && r.kind != walCkpt {
				t.Fatalf("decoded a record of kind %d", r.kind)
			}
		}
		var again []walRec
		valid2, clean2 := walScan(data[:valid], func(r walRec) { again = append(again, r) })
		if valid2 != valid || !clean2 {
			t.Fatalf("re-scan of the %d-byte valid prefix: valid=%d clean=%v", valid, valid2, clean2)
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("re-scan of the valid prefix decoded different records:\n  %+v\n  %+v", recs, again)
		}
	})
}

// applyTx runs one write transaction through the Backend interface: each
// (var, value) pair becomes a write step storing the value.
func applyTx(t *testing.T, be Backend, tx int, writes []walWrite) {
	t.Helper()
	for _, w := range writes {
		w := w
		step := core.Step{Var: w.v, Kind: core.Write, Fn: func([]core.Value) core.Value { return w.val }}
		if err := be.ApplyStep(tx, step); err != nil {
			t.Fatalf("ApplyStep tx %d on %s: %v", tx, w.v, err)
		}
	}
}

func dbEqual(a, b core.DB) bool {
	if len(a) != len(b) {
		return false
	}
	for v, val := range a {
		if b[v] != val {
			return false
		}
	}
	return true
}

// TestDiskBackendContract exercises the Backend surface: read-your-writes,
// isolation of uncommitted writes, commit permanence, rollback atomicity,
// and the durability core — State() survives Close + OpenDisk byte for
// byte. It runs as subtest "buffered", the disk's one execution mode.
func TestDiskBackendContract(t *testing.T) {
	t.Run("buffered", func(t *testing.T) {
		dir := t.TempDir()
		d, err := NewDisk(Config{Dir: dir, Fsync: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		init := core.DB{"x": 1, "y": 2}
		d.Reset(init)

		applyTx(t, d, 0, []walWrite{{v: "x", val: 10}, {v: "z", val: 30}})
		if got := d.Get(0, "x"); got != 10 {
			t.Fatalf("read-your-writes: Get(x) = %d, want 10", got)
		}
		if got := d.Get(1, "x"); got != 1 {
			t.Fatalf("isolation: other tx sees %d for x, want committed 1", got)
		}
		d.Commit(0)

		applyTx(t, d, 1, []walWrite{{v: "y", val: 20}, {v: "w", val: 40}})
		d.Rollback(1)

		want := core.DB{"x": 10, "y": 2, "z": 30}
		if got := d.State(); !dbEqual(got, want) {
			t.Fatalf("state after commit+rollback = %v, want %v", got, want)
		}

		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenDisk(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if got := r.State(); !dbEqual(got, want) {
			t.Fatalf("recovered state = %v, want %v", got, want)
		}
		if ds := r.DurabilityStats(); ds.WALTruncated != 0 {
			t.Fatalf("clean close recovered with WALTruncated=%d", ds.WALTruncated)
		}
		if ds := r.DurabilityStats(); ds.RecoveryNs <= 0 {
			t.Fatalf("RecoveryNs not recorded")
		}
	})
}

// TestDiskSegmentRoll forces segment rotation with a tiny segment cap and
// checks recovery replays across the segment boundary.
func TestDiskSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(Config{Dir: dir, SegmentBytes: 128, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(core.DB{})
	want := core.DB{}
	for i := 0; i < 200; i++ {
		v := core.Var(bytes.Repeat([]byte{'a' + byte(i%26)}, 3))
		applyTx(t, d, i, []walWrite{{v: v, val: core.Value(i)}})
		d.Commit(i)
		want[v] = core.Value(i)
	}
	if d.seq < 3 {
		t.Fatalf("segment cap 128 produced only %d segments", d.seq)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDisk(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.State(); !dbEqual(got, want) {
		t.Fatalf("recovered state across segments = %v, want %v", got, want)
	}
}

// TestDiskRegistry builds the backend through the storage.New registry.
func TestDiskRegistry(t *testing.T) {
	be, err := New("disk", Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	d := be.(*Disk)
	d.Reset(core.DB{"x": 1})
	applyTx(t, d, 0, []walWrite{{v: "x", val: 5}})
	d.Commit(0)
	if got := d.State()["x"]; got != 5 {
		t.Fatalf("registry disk backend: x = %d, want 5", got)
	}
	if _, ok := be.(DurableBackend); !ok {
		t.Fatalf("disk backend does not implement DurableBackend")
	}
	d.Close()
}

// TestDiskFsyncPolicies checks the sync accounting each policy implies:
// always syncs per commit, group syncs only on GroupSync, never never.
func TestDiskFsyncPolicies(t *testing.T) {
	commitN := func(d *Disk, n int) {
		for i := 0; i < n; i++ {
			applyTx(t, d, i, []walWrite{{v: "x", val: core.Value(i)}})
			d.Commit(i)
		}
	}
	d, _ := NewDisk(Config{Dir: t.TempDir(), Fsync: FsyncAlways})
	d.Reset(core.DB{})
	base := d.DurabilityStats().Fsyncs
	commitN(d, 5)
	if got := d.DurabilityStats().Fsyncs - base; got != 5 {
		t.Errorf("always: %d fsyncs for 5 commits, want 5", got)
	}
	if err := d.GroupSync(); err != nil {
		t.Errorf("always: GroupSync on clean log: %v", err)
	}
	if got := d.DurabilityStats().Fsyncs - base; got != 5 {
		t.Errorf("always: GroupSync on clean log added a sync (%d total)", got)
	}
	d.Close()

	d, _ = NewDisk(Config{Dir: t.TempDir(), Fsync: FsyncGroup})
	d.Reset(core.DB{})
	base = d.DurabilityStats().Fsyncs
	commitN(d, 5)
	if got := d.DurabilityStats().Fsyncs - base; got != 0 {
		t.Errorf("group: %d fsyncs before GroupSync, want 0", got)
	}
	if err := d.GroupSync(); err != nil {
		t.Fatal(err)
	}
	if got := d.DurabilityStats().Fsyncs - base; got != 1 {
		t.Errorf("group: %d fsyncs after one GroupSync, want 1", got)
	}
	d.Close()

	d, _ = NewDisk(Config{Dir: t.TempDir(), Fsync: FsyncNever})
	d.Reset(core.DB{})
	base = d.DurabilityStats().Fsyncs
	commitN(d, 5)
	if err := d.GroupSync(); err != nil {
		t.Fatal(err)
	}
	if got := d.DurabilityStats().Fsyncs - base; got != 0 {
		t.Errorf("never: %d fsyncs, want 0", got)
	}
	d.Close()
}

// TestDiskOneWritePerGroup pins where staged records reach the file. N
// commits and a GroupSync cost one write and one sync under FsyncGroup,
// one write and no sync under FsyncNever, and N of each under FsyncAlways.
// A checkpoint's anchor equals the anchor segment's file size when the
// checkpoint file is created, right after the capture, so the anchor is a
// real file offset. A segment sealed by a roll holds every record staged
// before the roll.
func TestDiskOneWritePerGroup(t *testing.T) {
	const n = 5
	for _, tc := range []struct {
		policy        FsyncPolicy
		writes, syncs int64
	}{{FsyncGroup, 1, 1}, {FsyncNever, 1, 0}, {FsyncAlways, n, n}} {
		efs := NewErrFS(OSFS{})
		d, err := NewDisk(Config{Dir: t.TempDir(), FS: efs, Fsync: tc.policy})
		if err != nil {
			t.Fatal(err)
		}
		d.Reset(core.DB{"x": 0})
		ops, fsyncs := efs.Ops(), d.DurabilityStats().Fsyncs
		for i := 0; i < n; i++ {
			applyTx(t, d, i, []walWrite{{v: "x", val: core.Value(i)}})
			d.Commit(i)
		}
		if err := d.GroupSync(); err != nil {
			t.Fatal(err)
		}
		syncs := d.DurabilityStats().Fsyncs - fsyncs
		if writes := efs.Ops() - ops - syncs; writes != tc.writes || syncs != tc.syncs {
			t.Errorf("%v: %d commits and a GroupSync made %d writes and %d syncs, want %d and %d",
				tc.policy, n, writes, syncs, tc.writes, tc.syncs)
		}
		d.Close()
	}

	t.Run("anchor", func(t *testing.T) {
		dir := t.TempDir()
		afs := &anchorFS{FS: OSFS{}, seg: filepath.Join(dir, segName(1)), size: -1}
		d, err := NewDisk(Config{Dir: dir, FS: afs, Fsync: FsyncGroup})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		d.Reset(core.DB{"x": 0})
		for i := 0; i < 3; i++ {
			applyTx(t, d, i, []walWrite{{v: "x", val: core.Value(i + 1)}})
			d.Commit(i) // staged: no GroupSync before the checkpoint
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		img, ok := loadCheckpoint(OSFS{}, dir, ckptName(1))
		if !ok {
			t.Fatal("checkpoint file unreadable")
		}
		if img.aseq != 1 || img.aoff != afs.size {
			t.Fatalf("checkpoint anchored at seg %d offset %d; segment 1 held %d bytes at capture",
				img.aseq, img.aoff, afs.size)
		}
		if img.table["x"] != 3 {
			t.Fatalf("checkpoint captured x=%d, want 3", img.table["x"])
		}
	})

	t.Run("roll", func(t *testing.T) {
		dir := t.TempDir()
		d, err := NewDisk(Config{Dir: dir, Fsync: FsyncGroup, SegmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		d.Reset(core.DB{})
		before := 0 // commits staged before the first roll
		for i := 0; d.seq == 1; i++ {
			applyTx(t, d, i, []walWrite{{v: "x", val: core.Value(i)}})
			d.Commit(i)
			if d.seq == 1 {
				before++
			}
		}
		data, err := os.ReadFile(filepath.Join(dir, segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		commits := 0
		valid, clean := walScan(data, func(r walRec) {
			if r.kind == walCommit {
				commits++
			}
		})
		if !clean || valid != len(data) || commits != before {
			t.Fatalf("sealed segment scans %d of %d bytes (clean %v) with %d commits, want all %d staged before the roll",
				valid, len(data), clean, commits, before)
		}
	})
}

// anchorFS records the size of the file seg when a checkpoint file is
// created: the moment between a checkpoint's capture and its publish.
type anchorFS struct {
	FS
	seg  string
	size int64
}

func (a *anchorFS) Create(name string) (File, error) {
	if strings.HasPrefix(filepath.Base(name), ckptPrefix) {
		if fi, err := os.Stat(a.seg); err == nil {
			a.size = fi.Size()
		}
	}
	return a.FS.Create(name)
}

// TestParseFsyncPolicy covers the CLI mapping both ways.
func TestParseFsyncPolicy(t *testing.T) {
	for _, s := range []string{"always", "group", "never"} {
		p, err := ParseFsyncPolicy(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if p.String() != s {
			t.Errorf("round trip %q -> %v -> %q", s, p, p.String())
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted garbage")
	}
}
