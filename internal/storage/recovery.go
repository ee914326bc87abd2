package storage

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"optcc/internal/core"
)

// OpenDisk recovers a disk backend from the files in cfg.Dir: a checkpoint
// plus redo to the torn tail. Uncommitted writes never reach the log (they
// travel only inside commit records), so there is no undo phase.
//
//  1. Start from the newest complete checkpoint, if any (checkpoint.go):
//     its snapshot record seeds the table. A torn or incomplete checkpoint
//     file — one whose scan is unclean or whose anchor segment is gone —
//     is ignored and an older one (or the empty state) is used instead;
//     checkpoint files share the WAL's framing and checksums precisely so
//     this judgment is mechanical.
//  2. Redo from the checkpoint's anchor — byte aoff of segment aseq, then
//     every later segment in order; without a checkpoint, from the start
//     of the oldest segment. Snapshot records reset the state; commit
//     records apply their write set; checkpoint markers carry no state and
//     are skipped. Segments wholly behind the anchor are leftovers of an
//     interrupted retirement — their effects are inside the checkpoint —
//     and are not replayed.
//  3. Stop at the torn tail: the first incomplete frame, checksum
//     mismatch, or undecodable payload ends the trusted prefix — that
//     record and everything after it (including any later segments) is
//     discarded and counted in WALTruncated. A torn commit record is
//     therefore never admitted: its transaction never happened.
//
// The recovered state is then compacted: one snapshot record is written
// to a fresh segment (via temp file + atomic rename, so a crash during
// recovery is itself recoverable), every pre-existing segment, checkpoint
// and temp file is removed, and a new active segment is opened. A second
// OpenDisk on the result is therefore clean — recovery converges in one
// pass, which the torture harness asserts as "converges in ≤2".
//
// The invariant this buys (DESIGN.md "Durability"): after a crash, the
// recovered state equals the serial replay of exactly the transactions
// whose commit records are on the synced prefix of the log — every synced
// commit survives, no uncommitted write is visible. Checkpoints only ever
// widen the durable set (a checkpoint may preserve a commit that was
// appended but not yet synced when captured), never shrink it: nothing is
// unlinked before the covering marker is synced durable.
//
// RecoveryBytes reports how much this open actually read back — checkpoint
// plus replayed tail. With checkpointing that is log-since-checkpoint, not
// log-since-birth, which is the whole point: it is the deterministic proxy
// the bounded-recovery tests assert on.
func OpenDisk(cfg Config) (*Disk, error) {
	start := time.Now()
	d, err := NewDisk(cfg)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Disk, error) {
		d.Close() // stop the checkpointer, release the dir lock
		return nil, err
	}
	names, err := d.fs.List(d.dir)
	if err != nil {
		return fail(fmt.Errorf("storage: recovery list %s: %w", d.dir, err))
	}
	var segs, ckpts []string
	segSeq := make(map[string]int)
	hasSeg := make(map[int]bool)
	maxSeq := 0
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, "seg-") && strings.HasSuffix(n, ".wal"):
			var seq int
			if _, err := fmt.Sscanf(n, "seg-%d.wal", &seq); err != nil {
				continue
			}
			segs = append(segs, n)
			segSeq[n] = seq
			hasSeg[seq] = true
			if seq > maxSeq {
				maxSeq = seq
			}
		case strings.HasPrefix(n, ckptPrefix) && strings.HasSuffix(n, ckptSuffix):
			ckpts = append(ckpts, n)
		}
		// Anything else — .tmp leftovers of a crashed checkpoint or
		// compaction, the LOCK file — carries no recoverable state; the
		// compaction sweep below disposes of the leftovers.
	}
	sort.Strings(segs)
	sort.Strings(ckpts)

	// Newest usable checkpoint wins. The anchor segment must still exist:
	// only a newer checkpoint's retirement removes it, and that newer
	// checkpoint is tried first, so a missing anchor marks a stale or
	// foreign file, not a protocol state.
	var img *ckptImage
	for i := len(ckpts) - 1; i >= 0 && img == nil; i-- {
		if c, ok := loadCheckpoint(d.fs, d.dir, ckpts[i]); ok && hasSeg[c.aseq] {
			img = c
		}
	}

	table := make(map[core.Var]core.Value)
	truncated := false
	replayed := int64(0)
	apply := func(r walRec) {
		switch r.kind {
		case walSnapshot:
			table = make(map[core.Var]core.Value, len(r.writes))
			for _, w := range r.writes {
				table[w.v] = w.val
			}
		case walCommit:
			for _, w := range r.writes {
				table[w.v] = w.val
			}
		case walCkpt:
			// Markers gate retirement; they carry no state to replay.
		}
	}

	tail := segs
	if img != nil {
		table = img.table
		replayed += int64(img.bytes)
		tail = tail[:0:0]
		for _, n := range segs {
			if segSeq[n] >= img.aseq {
				tail = append(tail, n)
			}
		}
	}
	for i, name := range tail {
		data, err := d.fs.ReadFile(segPath(d.dir, name))
		if err != nil {
			return fail(fmt.Errorf("storage: recovery read %s: %w", name, err))
		}
		if img != nil && i == 0 {
			// The anchor segment's prefix [0, aoff) is inside the checkpoint
			// already; replay resumes at the anchor. A file shorter than the
			// anchor means the unsynced pre-anchor tail was lost to real
			// power loss before the marker sync made it durable — nothing
			// past the checkpoint can be trusted then.
			if int64(len(data)) < img.aoff {
				truncated = true
				break
			}
			data = data[img.aoff:]
		}
		valid, clean := walScan(data, apply)
		replayed += int64(valid)
		if !clean {
			truncated = true
			break // later segments are beyond the torn tail: discard
		}
	}

	// Compact: persist the recovered state as a snapshot segment, drop
	// every replayed or superseded file, open a fresh active segment.
	// Written under temp name then renamed, so every intermediate crash
	// state re-recovers to the same database.
	snapSeq := maxSeq + 1
	snapName := segName(snapSeq)
	tmpName := snapName + ".tmp"
	f, err := d.fs.Create(segPath(d.dir, tmpName))
	if err != nil {
		return fail(fmt.Errorf("storage: recovery snapshot: %w", err))
	}
	tab := loadDiskTable(nil, table, nil)
	frame := d.enc.encodeSnapshot(appendCellsLocked(nil, tab))
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return fail(fmt.Errorf("storage: recovery snapshot write: %w", err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fail(fmt.Errorf("storage: recovery snapshot sync: %w", err))
	}
	f.Close()
	d.fsyncs.Add(1)
	d.walBytes.Add(int64(len(frame)))
	if err := d.fs.Rename(segPath(d.dir, tmpName), segPath(d.dir, snapName)); err != nil {
		return fail(fmt.Errorf("storage: recovery snapshot rename: %w", err))
	}
	for _, name := range names {
		// A leftover tmpName from a recovery killed before its rename was
		// just overwritten and renamed away: it is gone already.
		if name == lockFileName || name == tmpName {
			continue
		}
		if err := d.fs.Remove(segPath(d.dir, name)); err != nil {
			return fail(fmt.Errorf("storage: recovery compact: %w", err))
		}
	}
	d.seq = snapSeq + 1
	active, err := d.fs.Create(segPath(d.dir, segName(d.seq)))
	if err != nil {
		return fail(fmt.Errorf("storage: recovery open active: %w", err))
	}
	d.active = active
	d.activeBytes = 0
	d.tab.Store(tab)
	if truncated {
		d.walTruncated.Add(1)
	}
	d.recoveryBytes.Store(replayed)
	d.recoveryNs.Store(time.Since(start).Nanoseconds())
	return d, nil
}

// ckptImage is a decoded checkpoint file: the captured table and the log
// anchor the capture equals.
type ckptImage struct {
	table map[core.Var]core.Value
	aseq  int
	aoff  int64
	bytes int
}

// loadCheckpoint reads and validates one checkpoint file: a clean scan
// whose first record is the walCkpt header, followed by exactly one
// snapshot. Anything else — torn tail, wrong shape, unreadable —
// disqualifies the file; recovery falls back to an older checkpoint or a
// full replay.
func loadCheckpoint(fs FS, dir, name string) (*ckptImage, bool) {
	data, err := fs.ReadFile(segPath(dir, name))
	if err != nil {
		return nil, false
	}
	img := &ckptImage{table: make(map[core.Var]core.Value)}
	first, sawSnap, wellFormed := true, false, true
	valid, clean := walScan(data, func(r walRec) {
		if first {
			first = false
			if r.kind != walCkpt {
				wellFormed = false
				return
			}
			img.aseq, img.aoff = r.aseq, r.aoff
			return
		}
		if r.kind != walSnapshot || sawSnap {
			wellFormed = false
			return
		}
		sawSnap = true
		for _, w := range r.writes {
			img.table[w.v] = w.val
		}
	})
	if !clean || first || !sawSnap || !wellFormed {
		return nil, false
	}
	img.bytes = valid
	return img, true
}
