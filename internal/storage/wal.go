package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"optcc/internal/core"
)

// WAL record framing: every record on disk is
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// with the payload starting in a one-byte kind tag. The checksum is what
// makes torn tails detectable: a record is admitted by recovery only if the
// full frame is present and the CRC matches; the first violation ends the
// valid prefix of the segment, and everything after it is discarded. Record
// contents use varints, so the log stays compact for small transactions.
//
// Record kinds (DESIGN.md "Durability"):
//
//	walCommit   tx, n, (var, new)×n     commit point carrying the
//	                                    transaction's write set (redo-only)
//	walSnapshot n, (var, val)×n         full database image; resets the
//	                                    recovered state
//	walCkpt     ckpt, aseq, aoff        fuzzy-checkpoint marker: checkpoint
//	                                    file ckpt is complete and anchored at
//	                                    byte aoff of segment aseq; every
//	                                    segment < aseq is retirement-eligible.
//	                                    Doubles as the header record inside
//	                                    the checkpoint file itself.
//
// The tag values are part of the on-disk format. 1 and 3 belonged to the
// retired update and abort records; they decode as unknown kinds, so such a
// frame ends the valid prefix and is never misread as a commit.
const (
	walCommit   byte = 2
	walSnapshot byte = 4
	walCkpt     byte = 5
)

// walHeaderSize is the fixed frame prefix: length + checksum.
const walHeaderSize = 8

// castagnoli is the CRC-32C table (the polynomial used by iSCSI and most
// storage engines; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walWrite is one (variable, value) pair inside a commit or snapshot
// record. In a transaction's write buffer it also holds the committed cell
// the write lands in, when its step found it (Disk.ApplyStep); the log
// carries the name only.
type walWrite struct {
	v    core.Var
	val  core.Value
	cell *diskCell // nil: found by name at commit
}

// walRec is a decoded record.
type walRec struct {
	kind   byte
	tx     int        // walCommit
	writes []walWrite // walCommit, walSnapshot
	ckpt   int        // walCkpt: checkpoint file sequence number
	aseq   int        // walCkpt: anchor segment
	aoff   int64      // walCkpt: anchor byte offset within aseq
}

// walEncoder frames records into a reusable buffer. Not safe for
// concurrent use; the disk backend serializes appends under its mutex.
type walEncoder struct {
	buf []byte // scratch: payload is built at buf[walHeaderSize:]
}

// seal stamps the frame header over the payload built in e.buf and returns
// the complete frame, valid until the next encode call.
func (e *walEncoder) seal() []byte {
	payload := e.buf[walHeaderSize:]
	binary.LittleEndian.PutUint32(e.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.buf[4:8], crc32.Checksum(payload, castagnoli))
	return e.buf
}

func (e *walEncoder) reset() {
	e.buf = e.buf[:0]
	e.buf = append(e.buf, 0, 0, 0, 0, 0, 0, 0, 0)
}

func (e *walEncoder) putUvarint(x uint64) {
	e.buf = binary.AppendUvarint(e.buf, x)
}

func (e *walEncoder) putVarint(x int64) {
	e.buf = binary.AppendVarint(e.buf, x)
}

func (e *walEncoder) putVar(v core.Var) {
	e.putUvarint(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// encodeCommit frames a commit record carrying tx's write set.
func (e *walEncoder) encodeCommit(tx int, writes []walWrite) []byte {
	e.reset()
	e.buf = append(e.buf, walCommit)
	e.putUvarint(uint64(tx))
	e.putUvarint(uint64(len(writes)))
	for _, w := range writes {
		e.putVar(w.v)
		e.putVarint(int64(w.val))
	}
	return e.seal()
}

// encodeCkpt frames a checkpoint marker: checkpoint file ckpt captures the
// store as of byte aoff of segment aseq. Written to the WAL after the
// checkpoint file is durably renamed, and as the header record of the
// checkpoint file itself.
func (e *walEncoder) encodeCkpt(ckpt, aseq int, aoff int64) []byte {
	e.reset()
	e.buf = append(e.buf, walCkpt)
	e.putUvarint(uint64(ckpt))
	e.putUvarint(uint64(aseq))
	e.putUvarint(uint64(aoff))
	return e.seal()
}

// encodeSnapshot frames a full-state image: every (variable, value) pair
// of state, in the slice's order.
func (e *walEncoder) encodeSnapshot(state []walWrite) []byte {
	e.reset()
	e.buf = append(e.buf, walSnapshot)
	e.putUvarint(uint64(len(state)))
	for _, w := range state {
		e.putVar(w.v)
		e.putVarint(int64(w.val))
	}
	return e.seal()
}

// walDecode parses one record payload (the bytes after the frame header).
func walDecode(payload []byte) (walRec, error) {
	var r walRec
	if len(payload) == 0 {
		return r, fmt.Errorf("wal: empty record")
	}
	r.kind = payload[0]
	d := walDecoder{b: payload[1:]}
	switch r.kind {
	case walCommit, walSnapshot:
		if r.kind == walCommit {
			r.tx = int(d.uvarint())
		}
		n := d.uvarint()
		if n > uint64(len(d.b)) { // each write needs ≥2 bytes; cheap bound
			return r, fmt.Errorf("wal: write count %d exceeds payload", n)
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			w := walWrite{v: d.variable()}
			w.val = core.Value(d.varint())
			r.writes = append(r.writes, w)
		}
	case walCkpt:
		r.ckpt = int(d.uvarint())
		r.aseq = int(d.uvarint())
		r.aoff = int64(d.uvarint())
	default:
		return r, fmt.Errorf("wal: unknown record kind %d", r.kind)
	}
	return r, d.err
}

// walDecoder cursors over a record payload.
type walDecoder struct {
	b   []byte
	err error
}

func (d *walDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("wal: truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *walDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("wal: truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *walDecoder) variable() core.Var {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("wal: truncated variable name")
		return ""
	}
	v := core.Var(d.b[:n])
	d.b = d.b[n:]
	return v
}

// walScan walks the framed records in data, calling fn for each valid one
// in order. It returns the length of the valid prefix and whether the
// segment ended cleanly: valid < len(data) means a torn or corrupt tail —
// an incomplete frame, a checksum mismatch, or an undecodable payload —
// and scanning stops at the last record that checked out, which is exactly
// the prefix recovery may trust.
func walScan(data []byte, fn func(walRec)) (valid int, clean bool) {
	off := 0
	for off < len(data) {
		if len(data)-off < walHeaderSize {
			return off, false
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n <= 0 || len(data)-off-walHeaderSize < n {
			return off, false
		}
		payload := data[off+walHeaderSize : off+walHeaderSize+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return off, false
		}
		rec, err := walDecode(payload)
		if err != nil {
			return off, false
		}
		fn(rec)
		off += walHeaderSize + n
	}
	return off, true
}
