package storage

// The record checksum is the corruption detector the recycling and
// multiversion tests lean on ("a stale alias shows up as a checksum
// panic"). FuzzChecksum holds the word-wide fold to the byte-wise one on
// arbitrary bytes and misaligned starts; the bit-flip test proves a
// corrupted payload really makes both read paths panic.

import (
	"fmt"
	"testing"

	"optcc/internal/core"
)

// checksumBytewise is the reference fold: one byte per iteration.
func checksumBytewise(p []byte) byte {
	var s byte
	for _, b := range p {
		s ^= b
	}
	return s
}

// FuzzChecksum compares checksum with the byte-wise reference on the input
// and on its sub-slices starting at offsets 1–7 (misaligned starts). The
// seed corpus under testdata/fuzz/FuzzChecksum covers the block, word and
// tail boundaries (lengths 0, 1, 7, 8, 31, 32, 33, 4095, 4096, 4097).
func FuzzChecksum(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for off := 0; off < 8 && off <= len(data); off++ {
			p := data[off:]
			if got, want := checksum(p), checksumBytewise(p); got != want {
				t.Fatalf("len %d offset %d: checksum = %#x, byte-wise fold = %#x", len(data), off, got, want)
			}
		}
	})
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic on a corrupted payload", what)
		}
	}()
	f()
}

// TestKVChecksumCatchesBitFlips flips one bit of a stored version's payload
// at the scalar word, a mid-body word, the last full word and (for a
// length that is not a whole number of words) a tail byte: Get and
// SnapshotRead must both panic, and both must read the scalar again once
// the byte is restored.
func TestKVChecksumCatchesBitFlips(t *testing.T) {
	for _, size := range []int{4096, 4101} {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			kv := NewKV(Config{Shards: 1, ValueSize: size, SnapshotSlots: 1})
			kv.Reset(core.DB{"x": 0})
			commitInc(t, kv, 1, "x") // x=1 through newVersion's copy path
			p := kv.vars.Lookup("x").head.Load().rec.Payload
			type place struct {
				name string
				off  int
			}
			places := []place{
				{"scalar word", 3},
				{"mid-body word", size/2&^7 + 5},
				{"last full word", size&^7 - 2},
			}
			if size%8 != 0 {
				places = append(places, place{"tail byte", size - 2})
			}
			snap := kv.SnapshotAcquire(0)
			defer kv.SnapshotRelease(0)
			for _, pl := range places {
				bit := byte(1) << (pl.off % 8)
				p[pl.off] ^= bit
				mustPanic(t, pl.name+": Get", func() { kv.Get(2, "x") })
				mustPanic(t, pl.name+": SnapshotRead", func() { kv.SnapshotRead(0, "x", snap) })
				p[pl.off] ^= bit
				if got := kv.Get(2, "x"); got != 1 {
					t.Fatalf("%s restored: Get = %d, want 1", pl.name, got)
				}
				if got := kv.SnapshotRead(0, "x", snap); got != 1 {
					t.Fatalf("%s restored: SnapshotRead = %d, want 1", pl.name, got)
				}
			}
		})
	}
}

// TestKVFreshFillPattern pins the fresh-payload fill: past the stamped
// scalar, byte i of a newly loaded record is byte(i), across several
// 256-byte periods and a partial last one.
func TestKVFreshFillPattern(t *testing.T) {
	kv := NewKV(Config{Shards: 1, ValueSize: 1000})
	kv.Reset(core.DB{"x": 0})
	p := kv.Snapshot()["x"].Payload
	for i := 8; i < len(p); i++ {
		if p[i] != byte(i) {
			t.Fatalf("payload byte %d = %d, want %d", i, p[i], byte(i))
		}
	}
}
