package storage

// The online fuzzy checkpointer: what lets a disk backend run forever.
//
// Without it the log only shrinks at OpenDisk — a serving process
// accumulates sealed segments without bound and its recovery time grows
// with log-since-birth. The checkpointer bounds both, ARIES-style adapted
// to this log's record algebra:
//
//  1. Capture (fuzzy, under d.mu, O(table) copy — commits proceed the
//     moment the mutex drops): flush the staged log records, so the anchor
//     is a real file offset, then note the anchor — (segment aseq, byte
//     offset aoff) of the active segment — and copy the table's (variable,
//     value) pairs into a slice the next capture reuses. Because every
//     table mutation and its commit-record append happen together under
//     d.mu, the capture equals the replay of the log prefix [.., aseq:aoff)
//     exactly. Transactions in flight need nothing: their writes are still
//     in their own buffers, in neither the table nor the log. The snapshot
//     record is encoded from the slice off the mutex, so a warm store's
//     capture builds no map and allocates nothing.
//  2. Write the checkpoint file ckpt-N.ckpt with the established tmp →
//     sync → rename protocol: a header marker record (anchor) and one
//     snapshot record (the table). Same framing and checksums as the WAL,
//     so torn checkpoints are detected exactly like torn segments — and
//     ignored by recovery. The writes and the sync run off-mutex.
//  3. Publish, under d.mu: re-check the generation, rename the file to its
//     real name, append the checkpoint marker to the WAL and sync it
//     durable. A Reset therefore either finds the file published (and
//     removes it with the rest of the old log) or abandons the attempt
//     before the file has its real name. The marker is what recovery and
//     the torture harness cross-check; nothing is unlinked before it is on
//     disk.
//  4. Retire: close and unlink every sealed segment with seq < aseq (all
//     of them are wholly behind the anchor), and GC superseded checkpoint
//     files. Recovery (recovery.go) then starts from the newest complete
//     checkpoint and replays only the tail — log-since-checkpoint, not
//     log-since-birth.
//
// Graceful degradation is the contract, not an afterthought: a transient
// fault in steps 2–4 fails only the checkpoint attempt — the commit path
// never sees it — and the background loop retries with exponential
// backoff; after ckptMaxFailures consecutive failures the checkpointer
// disables itself and surfaces CheckpointerOff, leaving commits correct
// and fast (the log merely stops being retired) — a later Reset clears the
// flag and respawns the loop (disk.go), so the flag never claims a
// checkpointer that does not exist. A fault in step 3's marker append or
// sync is a real log-append failure and poisons the store like any other
// append — at which point the checkpointer (like GroupSync) observes the
// sticky error and stops cleanly, performing no further unlinks.

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// errCkptSuperseded is returned by checkpointOnce when a Reset bumped the
// generation after the capture: the attempt is abandoned — its file names a
// discarded incarnation and must never gate the new log's segments — and it
// counts neither as a completed checkpoint nor as a failure.
var errCkptSuperseded = errors.New("storage: checkpoint superseded by Reset")

const (
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ckpt"
	ckptTmpExt = ".tmp"
)

// ckptName formats checkpoint file names so lexicographic order is
// creation order, mirroring segName.
func ckptName(seq int) string { return fmt.Sprintf("ckpt-%08d.ckpt", seq) }

// ckptMaxFailures is how many consecutive failed attempts the background
// loop tolerates before disabling checkpointing (CheckpointerOff).
const ckptMaxFailures = 5

// ckptBackoffInitial seeds the exponential retry backoff.
const ckptBackoffInitial = time.Millisecond

// checkpointLoop is the background goroutine armed by
// Config.CheckpointBytes: appendLocked kicks it when the bytes appended
// since the last capture cross the threshold. Exits on Close, on a
// poisoned store, or after persistent failures disable checkpointing.
// Every exit clears ckptRunning in the same critical section as the state
// that justifies it, so Reset's respawn decision (disk.go) never races a
// dying loop into a flag-says-healthy-but-no-loop state.
func (d *Disk) checkpointLoop() {
	defer d.ckptWG.Done()
	failures := 0
	backoff := ckptBackoffInitial
	for {
		select {
		case <-d.ckptStop:
			d.checkpointLoopExit()
			return
		case <-d.ckptKick:
		}
		for {
			err := d.Checkpoint()
			if err == nil {
				failures, backoff = 0, ckptBackoffInitial
				break
			}
			d.mu.Lock()
			if d.err != nil {
				// Sticky store error: stop cleanly, no more unlinks. A later
				// Reset that revives the store respawns the loop.
				d.ckptRunning = false
				d.mu.Unlock()
				return
			}
			if failures++; failures >= ckptMaxFailures {
				d.ckptOff = true // health flag; commits continue unaffected
				d.ckptRunning = false
				d.mu.Unlock()
				return
			}
			d.mu.Unlock()
			select {
			case <-d.ckptStop:
				d.checkpointLoopExit()
				return
			case <-time.After(backoff):
			}
			backoff *= 2
		}
	}
}

// checkpointLoopExit marks the background loop dead under mu.
func (d *Disk) checkpointLoopExit() {
	d.mu.Lock()
	d.ckptRunning = false
	d.mu.Unlock()
}

// stopCheckpointer signals the background loop and waits for it — and any
// in-flight checkpoint — to finish. Idempotent; called by Close before it
// touches the segments, with no locks held (the loop needs d.mu to exit a
// running attempt). ckptStopped is set under mu BEFORE the channel closes,
// so a concurrent Reset either respawns before the close (the new loop sees
// the closed channel and exits, covered by the Wait) or observes the flag
// and leaves the checkpointer down for good.
func (d *Disk) stopCheckpointer() {
	d.mu.Lock()
	d.ckptStopped = true
	d.mu.Unlock()
	d.ckptOnce.Do(func() { close(d.ckptStop) })
	d.ckptWG.Wait()
}

// Checkpoint performs one synchronous fuzzy checkpoint attempt: capture,
// checkpoint file (tmp → sync → rename), durable WAL marker, segment
// retirement. Safe to call while commits are running; must not race
// Close. Counts CheckpointFailures on error. The background loop calls
// this with retry + backoff; tests and operators may call it directly.
func (d *Disk) Checkpoint() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	switch err := d.checkpointOnce(); {
	case err == nil:
		d.checkpoints.Add(1)
		return nil
	case errors.Is(err, errCkptSuperseded):
		// Abandoned by a concurrent Reset: nothing was published for the
		// current log, so it is neither a completed checkpoint nor a failure.
		return nil
	default:
		d.ckptFailures.Add(1)
		return err
	}
}

// ckptAnchor is what a capture notes besides the table copy: the store
// generation, the checkpoint's file number and the log position the copy
// equals.
type ckptAnchor struct {
	gen  int64
	cseq int
	aseq int
	aoff int64
}

// capture is checkpoint step 1; the caller holds ckptMu. Under d.mu it
// flushes the staged records, notes the anchor and copies the table into
// d.ckptCells.
// The anchor (aseq, aoff) names the exact log position the copied state
// equals; everything the store appends after the unlock lands at or beyond
// it and will be replayed by recovery on top of the checkpoint.
func (d *Disk) capture() (ckptAnchor, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return ckptAnchor{}, d.err
	}
	if d.active == nil {
		return ckptAnchor{}, fmt.Errorf("storage: checkpoint before Reset/OpenDisk")
	}
	if err := d.flushLocked(); err != nil {
		return ckptAnchor{}, err
	}
	d.ckptSeq++
	a := ckptAnchor{gen: d.ckptGen, cseq: d.ckptSeq, aseq: d.seq, aoff: d.activeBytes}
	d.ckptCells = appendCellsLocked(d.ckptCells[:0], d.tab.Load())
	d.sinceCkpt = 0
	return a, nil
}

func (d *Disk) checkpointOnce() error {
	a, err := d.capture()
	if err != nil {
		return err
	}

	// Step 2: write the checkpoint file off-mutex, tmp → sync. Separate
	// frames per record keep the fault injector's granularity: every write
	// is its own crash point. d.enc belongs to the append path (under mu);
	// this uses d.ckptEnc, under ckptMu.
	enc := &d.ckptEnc
	tmp := segPath(d.dir, ckptName(a.cseq)+ckptTmpExt)
	f, err := d.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: checkpoint create: %w", err)
	}
	written := int64(0)
	write := func(frame []byte) error {
		n, werr := f.Write(frame)
		written += int64(n)
		return werr
	}
	werr := write(enc.encodeCkpt(a.cseq, a.aseq, a.aoff))
	if werr == nil {
		werr = write(enc.encodeSnapshot(d.ckptCells))
	}
	if werr == nil {
		werr = f.Sync()
	}
	f.Close()
	d.ckptBytes.Add(written)
	if werr != nil {
		return fmt.Errorf("storage: checkpoint write: %w", werr)
	}
	d.fsyncs.Add(1)

	// Step 3: publish the file and append its durable marker; nothing is
	// unlinked before the marker is on disk.
	if err := d.publish(a, tmp); err != nil {
		return err
	}

	// Step 4: retire. Only now — marker durably synced — may segments
	// wholly behind the anchor disappear.
	return d.retire(a)
}

// publish is checkpoint step 3, one critical section under mu: rename the
// synced tmp file to its real name, then append the marker and sync it. A
// failed append or sync is a real log failure — appendLocked/syncLocked
// poison the store and the sticky error stops everything, this checkpoint
// included. A Reset since the capture (generation bump) abandons the
// checkpoint unpublished: its file describes a discarded incarnation, so it
// must never appear under a real name in the new log's directory, where
// recovery could pick it. The tmp is dropped instead — Reset's sweep may
// already have unlinked it, or it may have been created after the sweep.
// Renaming under mu is also what keeps Reset's sweep (under mu too) from
// listing a file that then vanishes before its unlink.
func (d *Disk) publish(a ckptAnchor, tmp string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	if d.ckptGen != a.gen {
		d.fs.Remove(tmp) // best-effort, like retire's GC: the name is garbage either way
		return errCkptSuperseded
	}
	if err := d.fs.Rename(tmp, segPath(d.dir, ckptName(a.cseq))); err != nil {
		return fmt.Errorf("storage: checkpoint rename: %w", err)
	}
	if err := d.appendLocked(d.enc.encodeCkpt(a.cseq, a.aseq, a.aoff)); err != nil {
		return err
	}
	return d.syncLocked()
}

// retire is checkpoint step 4: close and unlink every sealed segment wholly
// behind the anchor, and GC superseded checkpoint files. The whole step —
// generation/error re-check, handle close, directory listing and unlinks —
// is ONE critical section under syncMu+mu, and that atomicity is
// load-bearing twice over: a concurrent Reset (which requires mu) can never
// bump the generation and lay down a fresh seg-00000001.wal between our
// re-check and an unlink that would destroy it, and a concurrent poisoning
// (poisonLocked, also under mu, which releases the data-dir flock) can never
// let a fresh OpenDisk claim the directory while we are still unlinking
// under the old incarnation's feet. syncMu additionally excludes an
// in-flight GroupSync that may be fsyncing a captured handle that has since
// rolled into sealed. Holding mu across unlinks stalls the commit path for
// the duration of a few Removes, once per checkpoint — like publish's
// rename, a deliberate exception to the "no I/O under mu" rule, bought for
// Reset/poison atomicity.
func (d *Disk) retire(a ckptAnchor) error {
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err // poisoned stores perform no unlinks
	}
	if d.ckptGen != a.gen {
		return errCkptSuperseded
	}
	keep := d.sealed[:0]
	for _, s := range d.sealed {
		if s.seq < a.aseq {
			s.f.Close()
		} else {
			keep = append(keep, s)
		}
	}
	d.sealed = keep
	names, err := d.fs.List(d.dir)
	if err != nil {
		return fmt.Errorf("storage: checkpoint retire list: %w", err)
	}
	for _, n := range names {
		var seq int
		switch {
		case strings.HasPrefix(n, "seg-") && strings.HasSuffix(n, ".wal"):
			if _, err := fmt.Sscanf(n, "seg-%d.wal", &seq); err != nil || seq >= a.aseq {
				continue // the anchor segment and everything after must stay
			}
			if err := d.fs.Remove(segPath(d.dir, n)); err != nil {
				return fmt.Errorf("storage: checkpoint retire %s: %w", n, err)
			}
			d.segsRetired.Add(1)
		case strings.HasPrefix(n, ckptPrefix):
			// GC superseded checkpoints (and stale .tmp leftovers of failed
			// attempts); best-effort — recovery picks the newest valid one
			// regardless, and the compaction at OpenDisk sweeps stragglers.
			trimmed := strings.TrimSuffix(n, ckptTmpExt)
			if _, err := fmt.Sscanf(trimmed, "ckpt-%d.ckpt", &seq); err == nil &&
				(seq < a.cseq || (n != trimmed && seq <= a.cseq)) {
				d.fs.Remove(segPath(d.dir, n))
			}
		}
	}
	return nil
}
