// Write-ahead log encoding and replay.
//
// The WAL is an append-only sequence of length-prefixed,
// CRC-checksummed records:
//
//	record  := length(u32 LE) crc(u32 LE) payload
//	payload := op*
//	op      := kind(byte: 1=add 2=remove) term term term
//	term    := uvarint-length bytes
//
// where crc is CRC-32 (IEEE) of the payload.  One record is one
// atomic unit of durability: a single Add/Remove outside a batch, one
// AddTriples call, or an entire batch (see the Store batch-staging
// contract).  Terms are the IRI strings themselves, not dictionary
// IDs, so replay is plain AddTriples/Remove against a fresh graph and a
// WAL stays valid across snapshots that re-intern the dictionary in a
// different order.
//
// Replay scans records sequentially and stops at the first torn or
// corrupt one — a short header, a length pointing past the file's
// end, a CRC mismatch, or an undecodable payload.  Everything from
// that point on is discarded (the file is truncated at the last valid
// record boundary before reopening for append), which is exactly the
// crash semantics of an append-only log: the tail that was mid-write
// when the process died never happened.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

const (
	opAdd    = 1
	opRemove = 2

	// walHeaderLen is the fixed per-record framing overhead.
	walHeaderLen = 8

	// maxWALRecordLen is a sanity bound on a record's payload length:
	// a decoded length beyond it is treated as corruption, not as a
	// 3GiB allocation request.
	maxWALRecordLen = 1 << 28
)

// walOp is one logical mutation in a WAL record.
type walOp struct {
	remove  bool
	s, p, o rdf.IRI
}

// appendOp encodes op onto buf.
func appendOp(buf []byte, op walOp) []byte {
	kind := byte(opAdd)
	if op.remove {
		kind = opRemove
	}
	buf = append(buf, kind)
	for _, term := range [3]rdf.IRI{op.s, op.p, op.o} {
		buf = binary.AppendUvarint(buf, uint64(len(term)))
		buf = append(buf, term...)
	}
	return buf
}

// encodeRecord frames ops as one WAL record: header + payload.
func encodeRecord(ops []walOp) []byte {
	payload := make([]byte, 0, 32*len(ops))
	for _, op := range ops {
		payload = appendOp(payload, op)
	}
	rec := make([]byte, walHeaderLen, walHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	return append(rec, payload...)
}

// decodeOps decodes a record payload.  The payload already passed its
// CRC check, so a decode error here means an encoder bug or
// deliberate corruption; either way the record is rejected whole.
func decodeOps(p []byte) ([]walOp, error) {
	var ops []walOp
	for len(p) > 0 {
		kind := p[0]
		if kind != opAdd && kind != opRemove {
			return nil, fmt.Errorf("bad op kind %d", kind)
		}
		p = p[1:]
		var terms [3]rdf.IRI
		for i := range terms {
			n, w := binary.Uvarint(p)
			if w <= 0 || uint64(len(p)-w) < n {
				return nil, fmt.Errorf("truncated term")
			}
			terms[i] = rdf.IRI(p[w : w+int(n)])
			p = p[w+int(n):]
		}
		ops = append(ops, walOp{remove: kind == opRemove, s: terms[0], p: terms[1], o: terms[2]})
	}
	return ops, nil
}

// parseWAL scans data record by record, calling apply for each op of
// each valid record, and returns how many records were applied and
// the byte offset of the last valid record's end.  It never fails: a
// torn or corrupt tail just ends the scan early, per the crash
// semantics in the package comment.
func parseWAL(data []byte, apply func(walOp)) (records int, validBytes int64) {
	off := 0
	for {
		if len(data)-off < walHeaderLen {
			return records, int64(off)
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxWALRecordLen || uint64(len(data)-off-walHeaderLen) < uint64(n) {
			return records, int64(off)
		}
		payload := data[off+walHeaderLen : off+walHeaderLen+int(n)]
		if crc32.ChecksumIEEE(payload) != crc {
			return records, int64(off)
		}
		ops, err := decodeOps(payload)
		if err != nil {
			return records, int64(off)
		}
		for _, op := range ops {
			apply(op)
		}
		records++
		off += walHeaderLen + int(n)
	}
}

// walWriter appends records to an open WAL file, applying the
// configured fsync policy.  It is not safe for concurrent use; the
// Store serializes mutations per the snapshot-guard contract.
type walWriter struct {
	f   *os.File
	off int64 // file end offset (== bytes of valid records)

	policy       FsyncPolicy
	syncRecords  int           // batch policy: sync after this many unsynced records
	syncInterval time.Duration // batch policy: or after this long since the last sync
	unsynced     int
	lastSync     time.Time

	records *int64 // shared counters owned by the Store (atomics)
	bytes   *int64
	syncs   *int64
	hist    *obs.Histogram

	// failAfter is a test-only crash-injection hook: when >= 0, the
	// next append writes only failAfter bytes of the record and
	// reports an injected I/O error, leaving a torn tail on disk
	// exactly as a crash mid-write would.
	failAfter int64

	// failSync is a test-only hook: when non-nil, the next sync
	// reports it instead of calling fsync.
	failSync error

	// broken is set when the log's state is no longer known — an fsync
	// failed, or a failed append could not be cut off the file — and
	// every later append and sync returns it.
	broken error
}

func newWALWriter(f *os.File, off int64, o Options, records, bytes, syncs *int64, hist *obs.Histogram) *walWriter {
	return &walWriter{
		f:            f,
		off:          off,
		policy:       o.Fsync,
		syncRecords:  o.BatchSyncRecords,
		syncInterval: o.BatchSyncInterval,
		lastSync:     time.Now(),
		records:      records,
		bytes:        bytes,
		syncs:        syncs,
		hist:         hist,
		failAfter:    -1,
	}
}

// append writes ops as one record and applies the fsync policy.  A
// failed append is cut off the end of the file again, so reopening the
// store does not replay what its caller was told failed.  The cut is
// not synced: after a power loss the record may be back.  A failed
// write leaves the log usable; a failed fsync does not (see sync).
// inject, when non-nil, is the test hook's error, reported after the
// record is written as a failed write would be.
func (w *walWriter) append(ops []walOp, inject error) error {
	if w.broken != nil {
		return w.broken
	}
	rec := encodeRecord(ops)
	if w.failAfter >= 0 {
		cut := w.failAfter
		if cut > int64(len(rec)) {
			cut = int64(len(rec))
		}
		n, _ := w.f.Write(rec[:cut])
		w.off += int64(n)
		return fmt.Errorf("durable: injected WAL crash after %d bytes", n)
	}
	start := w.off
	n, err := w.f.Write(rec)
	w.off += int64(n)
	if err == nil {
		err = inject
	}
	if err != nil {
		err = fmt.Errorf("durable: WAL append: %w", err)
	} else {
		w.unsynced++
		err = w.maybeSync()
	}
	if err != nil {
		if terr := w.f.Truncate(start); terr != nil {
			w.broken = fmt.Errorf("durable: WAL tail unknown after a failed append: %w", terr)
		} else if _, serr := w.f.Seek(start, 0); serr != nil {
			w.broken = fmt.Errorf("durable: WAL tail unknown after a failed append: %w", serr)
		}
		w.off = start
		return err
	}
	addInt64(w.records, 1)
	addInt64(w.bytes, int64(len(rec)))
	return nil
}

// maybeSync applies the fsync policy after a record write.
func (w *walWriter) maybeSync() error {
	switch w.policy {
	case FsyncAlways:
		return w.sync()
	case FsyncBatch:
		if w.unsynced >= w.syncRecords || time.Since(w.lastSync) >= w.syncInterval {
			return w.sync()
		}
	}
	return nil
}

// sync fsyncs the WAL file, timing the call into the latency
// histogram.  A failed fsync stops the log: the kernel may already
// have dropped the dirty pages it could not write, so a later fsync
// can succeed without them, and records acknowledged under the batch
// policy may never reach the disk.  Every later append and sync of
// this file fails with the error; writes resume only in a new
// generation, after a snapshot or a reopen.
func (w *walWriter) sync() error {
	if w.broken != nil {
		return w.broken
	}
	if w.unsynced == 0 {
		return nil
	}
	start := time.Now()
	err := w.failSync
	w.failSync = nil
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		w.broken = fmt.Errorf("durable: WAL fsync failed, the log is stopped: %w", err)
		return w.broken
	}
	w.hist.Observe(time.Since(start))
	addInt64(w.syncs, 1)
	w.unsynced = 0
	w.lastSync = time.Now()
	return nil
}

// close flushes and closes the WAL file.
func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
