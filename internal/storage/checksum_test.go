package storage

// The record checksum is the corruption detector the recycling and
// multiversion tests lean on ("a stale alias shows up as a checksum
// panic"). TestChecksumEquivalence and FuzzChecksum hold checksum (through
// the AVX2 kernel where it runs) and the pure-Go fold to the byte-wise one
// on every short length, arbitrary bytes and misaligned starts; the
// bit-flip test proves a corrupted payload really makes both read paths
// panic.

import (
	"fmt"
	"math/rand"
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

// checksumGo is the pure-Go fold alone, as it runs where the kernel does
// not.
func checksumGo(p []byte) byte { return foldWords(0, p) }

// TestChecksumEquivalence compares checksum, the pure-Go fold and the
// byte-wise reference on every length from 0 to 1,100 and from 4,090 to
// 4,100, each at start offsets 0–31: every split between the kernel's
// 128-byte blocks, the Go fold's 32-byte blocks, words and tail bytes, at
// every alignment.
func TestChecksumEquivalence(t *testing.T) {
	t.Logf("AVX2 fold kernel on: %v", foldKernel)
	buf := make([]byte, 4100+32)
	rand.New(rand.NewSource(1)).Read(buf)
	check := func(n int) {
		for off := 0; off < 32; off++ {
			p := buf[off : off+n]
			want := checksumBytewise(p)
			if got := checksum(p); got != want {
				t.Fatalf("len %d offset %d: checksum = %#x, byte-wise fold = %#x", n, off, got, want)
			}
			if got := checksumGo(p); got != want {
				t.Fatalf("len %d offset %d: pure-Go fold = %#x, byte-wise fold = %#x", n, off, got, want)
			}
		}
	}
	for n := 0; n <= 1100; n++ {
		check(n)
	}
	for n := 4090; n <= 4100; n++ {
		check(n)
	}
}

// FuzzChecksum compares checksum and the pure-Go fold with the byte-wise
// reference on the input and on its sub-slices starting at offsets 1–7
// (misaligned starts). The seed corpus under testdata/fuzz/FuzzChecksum
// covers the kernel's 128-byte block edges and the Go fold's block, word
// and tail boundaries (lengths 0, 1, 7, 8, 31, 32, 33, 127, 128, 129, 255,
// 256, 257, 4095, 4096, 4097).
func FuzzChecksum(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for off := 0; off < 8 && off <= len(data); off++ {
			p := data[off:]
			want := checksumBytewise(p)
			if got := checksum(p); got != want {
				t.Fatalf("len %d offset %d: checksum = %#x, byte-wise fold = %#x", len(data), off, got, want)
			}
			if got := checksumGo(p); got != want {
				t.Fatalf("len %d offset %d: pure-Go fold = %#x, byte-wise fold = %#x", len(data), off, got, want)
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
// the byte is restored. At 200 bytes the first two flips land in the
// kernel's one 128-byte block and the last in the Go-folded remainder.
func TestKVChecksumCatchesBitFlips(t *testing.T) {
	for _, size := range []int{200, 4096, 4101} {
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

// BenchmarkChecksum times one fold of a 256-byte and a 4 KiB payload,
// through checksum (the AVX2 kernel where it runs) and the pure-Go fold:
// "hot" folds one buffer over and over, from L1; "arena" folds a
// different record of a 64 MiB arena each time, stepping through it in an
// order the hardware prefetcher does not follow, the footprint of Bench
// v2's kv4k store.
func BenchmarkChecksum(b *testing.B) {
	const arenaBytes = 64 << 20
	arena := make([]byte, arenaBytes)
	for i := range arena {
		arena[i] = byte(i * 131 >> 3)
	}
	folds := []struct {
		name string
		fn   func([]byte) byte
	}{{"kernel", checksum}, {"go", checksumGo}}
	for _, size := range []int{256, 4096} {
		records := arenaBytes / size
		step := records*5/8 | 1 // odd, so coprime with the power-of-two count
		for _, f := range folds {
			b.Run(fmt.Sprintf("%dB/hot/%s", size, f.name), func(b *testing.B) {
				p := arena[:size]
				b.SetBytes(int64(size))
				for b.Loop() {
					f.fn(p)
				}
			})
			b.Run(fmt.Sprintf("%dB/arena/%s", size, f.name), func(b *testing.B) {
				b.SetBytes(int64(size))
				r := 0
				for b.Loop() {
					f.fn(arena[r*size : (r+1)*size])
					if r += step; r >= records {
						r -= records
					}
				}
			})
		}
	}
}
