package cluster

// The scan wire protocol: how a coordinator pulls a query's triple
// patterns' matches out of one shard, in one round trip.
//
//	POST /scan            body: one ScanQuery(tp).Encode() line per pattern
//	GET  /scan?s=&p=&o=   the one-pattern spelling of the same request
//
// Each s/p/o parameter is a raw IRI string (URL-encoded); an absent
// parameter is a wildcard, so an empty line is the all-wildcard
// pattern.  The response is one binary frame (application/octet-stream):
//
//	"NSF1"                          magic + version
//	uvarint D                       dictionary size
//	D × (uvarint len, bytes)        the response's distinct IRIs, each once,
//	                                in strictly ascending byte order
//	uvarint N                       triple count
//	N × delta-coded (S, P, O)       dictionary indices, strictly ascending
//	u32le N, u32le CRC-32 (IEEE)    trailer; the CRC covers every byte before it
//
// The run is the union of all the patterns' matches, read under one
// acquisition of the shard's read lock, sorted and duplicate-free.
// Because the dictionary is sorted, index order *is* IRI order: the
// (S, P, O) integer order of the run is rdf.Triple.Less order, so the
// shard compares only the distinct IRIs as strings, places the
// triples by counting passes over their indices, and never formats a
// triple; and since any two shards' dictionaries merge into one sorted
// dictionary under a monotone remap, their runs stay sorted through
// the remap and k-way-merge into the SPO base array of the gathered
// graph (see mergeFrames).
//
// A triple is coded against its predecessor: uvarint(S - prevS); then,
// when S moved (or for the first triple) P and O in full, otherwise
// uvarint(P - prevP) and likewise O in full or as a non-zero delta.
// Deltas cannot be negative, so a frame cannot express an unsorted or
// repeated triple.
//
// The trailer is the torn-response detector: a shard killed mid-write,
// a proxy truncating the body or a flipped bit leaves the frame short,
// the count wrong or the CRC mismatched, and the coordinator treats
// the attempt as failed and retries instead of ingesting a prefix.
// Both halves of the protocol live here so nsserve (the shard) and
// nscoord (the coordinator) cannot drift apart, and tests can mount
// the real handler on fake stores.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

const (
	// frameMagic opens every scan frame; the last byte is the version.
	frameMagic = "NSF1"
	// frameTrailer is the trailer's size: count and CRC, u32 each.
	frameTrailer = 8
	// frameMin is the empty frame: magic, D = 0, N = 0, trailer.
	frameMin = len(frameMagic) + 2 + frameTrailer

	// maxScanRequestBytes and maxScanPatterns bound a POST /scan
	// request: a body over the first is refused with 413, more lines
	// than the second with 400.  A query has a handful of patterns; the
	// limits only keep a confused client from pinning the read lock.
	maxScanRequestBytes = 1 << 20
	maxScanPatterns     = 1024
)

// StoreSource yields a read-consistent view of a store: the returned
// release func must be called when the scan is done.  nsserve backs
// it with the read side of its graph RWMutex.
type StoreSource func() (g rdf.Store, release func())

// scanPattern is one pattern of a scan request: a constant IRI or nil
// (wildcard) per position.
type scanPattern struct{ s, p, o *rdf.IRI }

func patternFromValues(q url.Values) scanPattern {
	var pat scanPattern
	for _, bind := range []struct {
		key string
		ptr **rdf.IRI
	}{{"s", &pat.s}, {"p", &pat.p}, {"o", &pat.o}} {
		if q.Has(bind.key) {
			iri := rdf.IRI(q.Get(bind.key))
			*bind.ptr = &iri
		}
	}
	return pat
}

// scanFrame is a decoded (or not yet encoded) scan response: a sorted
// duplicate-free dictionary and a strictly SPO-sorted run of indices
// into it.
type scanFrame struct {
	iris    []rdf.IRI
	triples []rdf.IDTriple
}

// ScanHandler serves the shard side of the scan protocol over src.
// All the request's patterns are matched under one acquisition of the
// source's read lock, so the frame is one snapshot of the store; the
// sorting and encoding happen after the lock is released.
func ScanHandler(src StoreSource) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		patterns, status, err := readScanRequest(w, r)
		if err != nil {
			http.Error(w, err.Error(), status)
			return
		}
		f := buildFrame(collectMatches(src, patterns))
		body := f.encode()
		sp := obs.SpanFromContext(r.Context())
		sp.SetAttr("patterns", len(patterns))
		sp.SetAttr("triples", len(f.triples))
		sp.SetAttr("dict", len(f.iris))
		sp.SetAttr("bytes", len(body))
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		// A failed write means the peer is gone; the short body is the
		// signal it needs.
		_, _ = w.Write(body)
	})
}

// readScanRequest parses the request's patterns, or returns the HTTP
// status to refuse it with.
func readScanRequest(w http.ResponseWriter, r *http.Request) ([]scanPattern, int, error) {
	switch r.Method {
	case http.MethodGet:
		return []scanPattern{patternFromValues(r.URL.Query())}, 0, nil
	case http.MethodPost:
	default:
		return nil, http.StatusMethodNotAllowed, errors.New("GET or POST only")
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxScanRequestBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("scan request exceeds %d bytes", maxScanRequestBytes)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("read scan request: %w", err)
	}
	var patterns []scanPattern
	for rest := string(raw); rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if len(patterns) == maxScanPatterns {
			return nil, http.StatusBadRequest, fmt.Errorf("scan request has more than %d patterns", maxScanPatterns)
		}
		q, err := url.ParseQuery(line)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("scan pattern %d: %w", len(patterns), err)
		}
		patterns = append(patterns, patternFromValues(q))
	}
	return patterns, 0, nil
}

// scanScratch maps store IDs to positions for collectMatches: slot id
// holds the ID's position among the scan's distinct IDs plus one, 0
// while the scan has not met it.  It is pooled with every slot zero; a
// scan resets only the slots it set, so its cost is the matches, not
// the dictionary — whose size it does carry, 4 bytes an entry per
// concurrent scan.
type scanScratch struct{ pos []int32 }

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// collectMatches reads everything a frame needs from the store under
// one read lock: the patterns' matches (with repeats where patterns
// overlap) rewritten from store IDs to local indices, and iris, the
// distinct IRIs the matches mention, local index i ↦ iris[i], in order
// of first appearance.
func collectMatches(src StoreSource, patterns []scanPattern) (iris []rdf.IRI, ts []rdf.IDTriple) {
	g, release := src()
	defer release()
	dict := g.Dict()
	lookup := func(iri *rdf.IRI) (*rdf.ID, bool) {
		if iri == nil {
			return nil, true
		}
		id, ok := dict.Lookup(*iri)
		return &id, ok
	}
	// Resolve the constants and count first (the counts are exact and
	// O(log n)), so the matches land in one allocation.
	type idPattern struct{ s, p, o *rdf.ID }
	resolved := make([]idPattern, 0, len(patterns))
	total := 0
	for _, pat := range patterns {
		s, okS := lookup(pat.s)
		p, okP := lookup(pat.p)
		o, okO := lookup(pat.o)
		if !okS || !okP || !okO {
			continue // a constant the store never saw matches nothing
		}
		resolved = append(resolved, idPattern{s, p, o})
		total += g.CountMatchIDs(s, p, o)
	}
	ts = make([]rdf.IDTriple, 0, total)
	for _, pat := range resolved {
		g.MatchIDs(pat.s, pat.p, pat.o, func(t rdf.IDTriple) bool {
			ts = append(ts, t)
			return true
		})
	}

	sc := scanScratchPool.Get().(*scanScratch)
	if n := dict.Len(); len(sc.pos) < n {
		sc.pos = append(sc.pos, make([]int32, n-len(sc.pos))...)
	}
	pos := sc.pos
	var seen []rdf.ID // seen[i] is the store ID of local index i
	for i, t := range ts {
		for _, id := range [3]rdf.ID{t.S, t.P, t.O} {
			if pos[id] == 0 {
				seen = append(seen, id)
				pos[id] = int32(len(seen))
			}
		}
		ts[i] = rdf.IDTriple{S: rdf.ID(pos[t.S] - 1), P: rdf.ID(pos[t.P] - 1), O: rdf.ID(pos[t.O] - 1)}
	}
	iris = make([]rdf.IRI, len(seen))
	for i, id := range seen {
		iris[i] = dict.IRI(id)
		pos[id] = 0
	}
	scanScratchPool.Put(sc)
	return iris, ts
}

// buildFrame turns collectMatches' output into a frame: the distinct
// IRIs are sorted — the only string comparisons — each local index is
// replaced by its IRI's rank, and the rank triples are put in (S, P, O)
// order by counting passes over the ranks and deduplicated.
func buildFrame(iris []rdf.IRI, ts []rdf.IDTriple) scanFrame {
	order := make([]int32, len(iris)) // order[rank] = local index
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(string(iris[a]), string(iris[b])) })
	rank := make([]rdf.ID, len(iris))
	sorted := make([]rdf.IRI, len(iris))
	for r, i := range order {
		rank[i] = rdf.ID(r)
		sorted[r] = iris[i]
	}
	for i, t := range ts {
		ts[i] = rdf.IDTriple{S: rank[t.S], P: rank[t.P], O: rank[t.O]}
	}
	return scanFrame{iris: sorted, triples: slices.Compact(rdf.CountingSortSPO(ts, len(iris)))}
}

// encode renders the frame in the wire layout described at the top of
// this file.
func (f scanFrame) encode() []byte {
	// An estimate (a delta-coded triple is mostly three or four bytes);
	// append grows the buffer if a frame outruns it.
	size := frameMin + 2*binary.MaxVarintLen32 + 4*len(f.triples)
	for _, iri := range f.iris {
		size += len(iri) + 2
	}
	b := make([]byte, 0, size)
	b = append(b, frameMagic...)
	b = binary.AppendUvarint(b, uint64(len(f.iris)))
	for _, iri := range f.iris {
		b = binary.AppendUvarint(b, uint64(len(iri)))
		b = append(b, iri...)
	}
	b = binary.AppendUvarint(b, uint64(len(f.triples)))
	var prev rdf.IDTriple
	for i, t := range f.triples {
		// P is coded against its predecessor's while S stands still, O
		// while S and P do; otherwise in full (against zero).
		pBase, oBase := prev.P, prev.O
		if i == 0 || t.S != prev.S {
			pBase, oBase = 0, 0
		} else if t.P != prev.P {
			oBase = 0
		}
		b = binary.AppendUvarint(b, uint64(t.S-prev.S))
		b = binary.AppendUvarint(b, uint64(t.P-pBase))
		b = binary.AppendUvarint(b, uint64(t.O-oBase))
		prev = t
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.triples)))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// ScanQuery renders tp as scan request parameters: constant positions
// become s/p/o parameters, variables stay wildcards.
func ScanQuery(tp sparql.TriplePattern) url.Values {
	v := url.Values{}
	for _, bind := range []struct {
		key string
		val sparql.Value
	}{{"s", tp.S}, {"p", tp.P}, {"o", tp.O}} {
		if !bind.val.IsVar() {
			v.Set(bind.key, string(bind.val.IRI()))
		}
	}
	return v
}

// ErrTornScan reports a scan response that is not a whole frame: it
// ended early, its trailer count disagrees with its body, or its CRC
// does not match — the shard died (or was killed) mid-write, a
// middlebox truncated the body, or a bit flipped on the way.
// Retryable.
type ErrTornScan struct {
	Reason string
}

func (e ErrTornScan) Error() string { return "torn scan response: " + e.Reason }

// errBadFrame is a response that is whole but is not a frame this
// build understands — wrong magic or version, or a body that violates
// the layout although its CRC matches.  Retrying cannot fix a peer
// that speaks something else.
type errBadFrame string

func (e errBadFrame) Error() string { return "bad scan frame: " + string(e) }

// decodeScanFrame parses one whole response body.  Nothing is
// allocated on the word of a length prefix: the CRC is checked over
// the bytes that arrived before any count is believed, and each count
// is then held against the bytes left (a dictionary entry takes at
// least one, a triple at least three).
func decodeScanFrame(b []byte) (scanFrame, error) {
	if len(b) >= len(frameMagic) && string(b[:len(frameMagic)]) != frameMagic {
		return scanFrame{}, errBadFrame(fmt.Sprintf("magic %q, want %q", b[:len(frameMagic)], frameMagic))
	}
	if len(b) < frameMin {
		return scanFrame{}, ErrTornScan{Reason: fmt.Sprintf("%d bytes, shorter than an empty frame", len(b))}
	}
	crcAt := len(b) - 4
	if got, want := crc32.ChecksumIEEE(b[:crcAt]), binary.LittleEndian.Uint32(b[crcAt:]); got != want {
		return scanFrame{}, ErrTornScan{Reason: fmt.Sprintf("CRC %08x, trailer says %08x", got, want)}
	}
	announced := binary.LittleEndian.Uint32(b[len(b)-frameTrailer:])
	body := b[len(frameMagic) : len(b)-frameTrailer]

	pos := 0
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}

	// Dictionary.  One pass sizes it, so that all the IRIs can share
	// one string instead of one allocation each.
	d, ok := uvarint()
	if !ok || d > uint64(len(body)-pos) {
		return scanFrame{}, errBadFrame("dictionary size exceeds the frame")
	}
	dictAt := pos
	for i := uint64(0); i < d; i++ {
		n, ok := uvarint()
		if !ok || n > uint64(len(body)-pos) {
			return scanFrame{}, errBadFrame(fmt.Sprintf("dictionary entry %d exceeds the frame", i))
		}
		pos += int(n)
	}
	text := string(body[dictAt:pos])
	iris := make([]rdf.IRI, d)
	pos = dictAt
	for i := range iris {
		n, _ := uvarint()
		iris[i] = rdf.IRI(text[pos-dictAt : pos-dictAt+int(n)])
		pos += int(n)
		if i > 0 && iris[i-1] >= iris[i] {
			return scanFrame{}, errBadFrame(fmt.Sprintf("dictionary not strictly sorted at entry %d", i))
		}
	}

	// Triples.
	n, ok := uvarint()
	if !ok || n > uint64(len(body)-pos)/3 || n > math.MaxUint32 {
		return scanFrame{}, errBadFrame("triple count exceeds the frame")
	}
	// index adds a delta to a base and holds the result to the
	// dictionary; both operands fit 32 bits, so the sum cannot wrap.
	index := func(base rdf.ID) (rdf.ID, bool) {
		v, ok := uvarint()
		if !ok || v > math.MaxUint32 || uint64(base)+v >= d {
			return 0, false
		}
		return base + rdf.ID(v), true
	}
	triples := make([]rdf.IDTriple, n)
	var prev rdf.IDTriple
	for i := range triples {
		// The mirror of encode: a position is coded against the previous
		// triple's while everything before it stands still.
		var t rdf.IDTriple
		var okS, okP, okO bool
		t.S, okS = index(prev.S)
		moved := i == 0 || t.S != prev.S
		if moved {
			t.P, okP = index(0)
		} else {
			t.P, okP = index(prev.P)
		}
		moved = moved || t.P != prev.P
		if moved {
			t.O, okO = index(0)
		} else {
			t.O, okO = index(prev.O)
			okO = okO && t.O != prev.O // a zero delta throughout repeats the triple
		}
		if !okS || !okP || !okO {
			return scanFrame{}, errBadFrame(fmt.Sprintf("triple %d is truncated, out of the dictionary or not ascending", i))
		}
		triples[i], prev = t, t
	}
	if pos != len(body) {
		return scanFrame{}, errBadFrame(fmt.Sprintf("%d stray bytes before the trailer", len(body)-pos))
	}
	if uint64(announced) != n {
		return scanFrame{}, ErrTornScan{Reason: fmt.Sprintf("trailer announces %d triples, body holds %d", announced, n)}
	}
	return scanFrame{iris: iris, triples: triples}, nil
}

// readScanFrame reads a response body to its end and decodes it,
// returning the bytes read either way.  sizeHint is the length the
// peer announced, if it did: it sizes the buffer, up to a bound, so a
// well-behaved response is read into one allocation and a lying one
// cannot reserve more than the bound.  A read error mid-body
// (connection reset, kill -9'd peer) is a torn response, not a
// protocol error.
func readScanFrame(r io.Reader, sizeHint int64) (scanFrame, int, error) {
	var buf bytes.Buffer
	if sizeHint > 0 {
		buf.Grow(int(min(sizeHint, 1<<20)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return scanFrame{}, buf.Len(), ErrTornScan{Reason: fmt.Sprintf("read failed after %d bytes: %v", buf.Len(), err)}
	}
	f, err := decodeScanFrame(buf.Bytes())
	return f, buf.Len(), err
}

// ParseScanBody reads one scan response and returns its run as
// triples, in Triple.Less order.  A torn response yields ErrTornScan,
// which the coordinator's retry loop treats as transient; any other
// error is permanent.
func ParseScanBody(r io.Reader) ([]rdf.Triple, error) {
	f, _, err := readScanFrame(r, 0)
	if err != nil {
		return nil, err
	}
	out := make([]rdf.Triple, len(f.triples))
	for i, t := range f.triples {
		out[i] = rdf.Triple{S: f.iris[t.S], P: f.iris[t.P], O: f.iris[t.O]}
	}
	return out, nil
}
