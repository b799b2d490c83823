package exec

// The served result encoding: both servers write a /query response
// body from ID rows with the ResultWriter below, so no Mapping, no
// MappingSet and no rdf.Graph is built between the engine and the
// socket.

import (
	"encoding/json"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// maxPooledBody is the largest body buffer a released ResultWriter
// keeps; one oversized answer must not pin its megabytes in the pool.
const maxPooledBody = 4 << 20

// Field is an extra top-level member of the bindings document,
// written after "results" in the order given (nsserve's profile and
// plan, nscoord's partial and shards).
type Field struct {
	Name  string
	Value any // anything encoding/json marshals
}

// EncodeStats describes one encoded answer.
type EncodeStats struct {
	Rows         int // bindings, or triples, written
	Bytes        int
	DistinctIRIs int
}

// Record reports one encoding on both servers' observability surfaces
// in one vocabulary: it annotates and ends the request's encode span
// (rows, bytes, distinct_iris; status error when err is non-nil),
// feeds the query_encode histogram and response_bytes_total on
// success, and returns the stage as a profile node for the slow-query
// log's hot-span list.
func (st EncodeStats) Record(span *obs.Span, m *obs.Metrics, took time.Duration, err error) *obs.Profile {
	span.SetAttr("rows", st.Rows)
	span.SetAttr("bytes", st.Bytes)
	span.SetAttr("distinct_iris", st.DistinctIRIs)
	if err != nil {
		span.SetStatus("error")
	} else {
		m.ObserveEncode(took, st.Bytes)
	}
	span.End()
	return &obs.Profile{Op: "encode", WallNS: int64(took), RowsOut: int64(st.Rows)}
}

// ResultWriter encodes answers in ID form into a response body.
//
// Output order is deterministic and a function of the answer alone, so
// a single node and a cluster give the same bytes.  The distinct IRIs
// an answer touches are ranked by their bytes (Go string order), once;
// after that everything is integer work:
//
//   - bindings: a row is the sequence of its bound (slot, rank) pairs,
//     slots being the variables in sorted order.  Rows sort by that
//     sequence, element by element — a smaller slot first, then a
//     smaller rank — and a row that is a proper prefix of another
//     sorts before it.  The members of one binding are in slot order.
//     The first pair decides most comparisons, and it is a small
//     integer: rows are bucketed on it by counting (sortRows) and
//     compared only within a bucket.
//   - triples: by (S, P, O) rank, duplicates dropped — the order of
//     rdf.WriteGraph.
//
// Each distinct IRI is escaped once and copied per occurrence.  The
// writer holds no reference to the answer after a Write* call returns,
// so the body may be sent after the store's lock is released.  Take
// one with NewResultWriter and Release it when the body has been
// sent; a ResultWriter is not safe for concurrent use.
type ResultWriter struct {
	body []byte

	rows    sparql.Rows
	dictLen int
	side    []rdf.IRI // CONSTRUCT constants absent from rows.Dict; ID dictLen+i
	// rank maps an ID the answer touches to 1 + its IRI's rank, and is
	// zero everywhere else — also between uses, so a warm writer pays
	// for the IDs it touches, not for the dictionary.
	rank    []uint32
	touched []rdf.ID // distinct touched IDs; in rank order once ranked
	arena   []byte   // escaped IRIs in rank order; off delimits them
	off     []uint32
	order   []int32  // row indices in output order
	tmp     []int32  // sortRows' scatter target
	count   []uint32 // sortRows' bucket counters
	used    []uint64 // OR of all row masks: the head's variables
	keys    []byte   // per slot: "var":{"type":"uri","value":
	keyOff  []uint32
	triples [][3]uint32
}

var resultWriters = sync.Pool{New: func() any { return new(ResultWriter) }}

// NewResultWriter returns an empty writer, reusing a released one's
// buffers when there is one.
func NewResultWriter() *ResultWriter { return resultWriters.Get().(*ResultWriter) }

// Release returns the writer to the pool; Bytes is invalid afterwards.
func (w *ResultWriter) Release() {
	if cap(w.body) > maxPooledBody {
		return
	}
	w.body = w.body[:0]
	resultWriters.Put(w)
}

// Bytes is the body written so far.
func (w *ResultWriter) Bytes() []byte { return w.body }

// Write appends p to the body, so small documents (ASK) can be encoded
// into the same buffer with encoding/json.
func (w *ResultWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// begin binds the writer to an answer and sizes the rank table; end
// undoes it.  Every Write* method defers end, so an error or a panic
// half way cannot leave a stale rank, or the answer, in the pool.
func (w *ResultWriter) begin(rows sparql.Rows) {
	w.rows, w.dictLen = rows, rows.Dict.Len()
	if need := w.dictLen + len(w.side); need > cap(w.rank) {
		w.rank = make([]uint32, need)
	} else {
		w.rank = w.rank[:need]
	}
}

func (w *ResultWriter) end() {
	for _, id := range w.touched {
		w.rank[id] = 0
	}
	w.touched = w.touched[:0]
	clear(w.side)
	w.side = w.side[:0]
	w.rows = sparql.Rows{}
}

func (w *ResultWriter) iri(id rdf.ID) rdf.IRI {
	if int(id) < w.dictLen {
		return w.rows.Dict.IRI(id)
	}
	return w.side[int(id)-w.dictLen]
}

func (w *ResultWriter) touch(id rdf.ID) {
	if w.rank[id] == 0 {
		w.rank[id] = 1
		w.touched = append(w.touched, id)
	}
}

// rankTouched sorts the touched IDs by IRI — the one string sort of a
// response — fills in their ranks and escapes each into the arena.
func (w *ResultWriter) rankTouched(escape func(dst []byte, iri rdf.IRI) []byte) {
	slices.SortFunc(w.touched, func(a, b rdf.ID) int {
		x, y := w.iri(a), w.iri(b)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	})
	w.arena, w.off = w.arena[:0], append(w.off[:0], 0)
	for r, id := range w.touched {
		w.rank[id] = uint32(r) + 1
		w.arena = escape(w.arena, w.iri(id))
		w.off = append(w.off, uint32(len(w.arena)))
	}
}

// escaped is the arena entry of a ranked ID.
func (w *ResultWriter) escaped(rank uint32) []byte {
	return w.arena[w.off[rank-1]:w.off[rank]]
}

// WriteBindings appends the SPARQL 1.1 JSON results document of rows,
// then the extra members, then a newline:
//
//	{"head":{"vars":[…]},"results":{"bindings":[{"x":{"type":"uri","value":"…"},…},…]},…}
//
// head.vars lists the variables some row binds, in sorted order, and
// is [] for an empty answer.  Strings are escaped as encoding/json
// escapes them.
func (w *ResultWriter) WriteBindings(rows sparql.Rows, extra ...Field) (EncodeStats, error) {
	start := len(w.body)
	n, width, words := rows.Len(), len(rows.Vars), rows.Words
	w.begin(rows)
	defer w.end()

	w.used = append(w.used[:0], make([]uint64, words)...)
	w.order = w.order[:0]
	for i := 0; i < n; i++ {
		w.order = append(w.order, int32(i))
		ids := rows.IDs[i*width:]
		for wi, m := range rows.Masks[i*words : (i+1)*words] {
			w.used[wi] |= m
			for ; m != 0; m &= m - 1 {
				w.touch(ids[wi*64+bits.TrailingZeros64(m)])
			}
		}
	}
	w.rankTouched(func(dst []byte, iri rdf.IRI) []byte { return appendJSONString(dst, string(iri)) })
	w.sortRows()

	out := append(w.body, `{"head":{"vars":[`...)
	w.keys, w.keyOff = w.keys[:0], append(w.keyOff[:0], 0)
	sep := false
	for j, v := range rows.Vars {
		if w.used[j/64]&(1<<uint(j%64)) != 0 {
			if sep {
				out = append(out, ',')
			}
			sep = true
			out = appendJSONString(out, string(v))
			w.keys = appendJSONString(w.keys, string(v))
			w.keys = append(w.keys, `:{"type":"uri","value":`...)
		}
		w.keyOff = append(w.keyOff, uint32(len(w.keys)))
	}
	out = append(out, `]},"results":{"bindings":[`...)
	for k, i := range w.order {
		if k > 0 {
			out = append(out, ',')
		}
		out = append(out, '{')
		ids := rows.IDs[int(i)*width:]
		sep = false
		for wi, m := range rows.Masks[int(i)*words : (int(i)+1)*words] {
			for ; m != 0; m &= m - 1 {
				j := wi*64 + bits.TrailingZeros64(m)
				if sep {
					out = append(out, ',')
				}
				sep = true
				out = append(out, w.keys[w.keyOff[j]:w.keyOff[j+1]]...)
				out = append(out, w.escaped(w.rank[ids[j]])...)
				out = append(out, '}')
			}
		}
		out = append(out, '}')
	}
	out = append(out, `]}`...)
	for _, f := range extra {
		v, err := json.Marshal(f.Value)
		if err != nil {
			w.body = out[:start]
			return EncodeStats{}, err
		}
		out = append(out, ',')
		out = appendJSONString(out, f.Name)
		out = append(out, ':')
		out = append(out, v...)
	}
	w.body = append(out, '}', '\n')
	return EncodeStats{Rows: n, Bytes: len(w.body) - start, DistinctIRIs: len(w.touched)}, nil
}

// countingMinRows is the answer size below which sortRows compares
// straight away: bucketing costs a few passes over the rows and one
// over the counters.
const countingMinRows = 64

// sortRows puts w.order — the rows in answer order on entry — in
// output order.  No two rows of an answer are equal, so compareRows is
// a strict total order and any correct sort gives the same
// permutation: here, two stable counting passes bucket the rows by the
// first element of their key, first by its slot (nearly always the
// same one) and then, within a slot, by its rank, and comparison sorts
// run only inside the buckets of rows that agree on both.
func (w *ResultWriter) sortRows() {
	rows := w.order
	if len(rows) < countingMinRows {
		slices.SortFunc(rows, w.compareRows)
		return
	}
	width, words := len(w.rows.Vars), w.rows.Words
	firstSlot := func(r int32) uint32 { // 0: binds nothing, else 1 + slot
		for wi, m := range w.rows.Masks[int(r)*words : (int(r)+1)*words] {
			if m != 0 {
				return uint32(wi*64+bits.TrailingZeros64(m)) + 1
			}
		}
		return 0
	}
	w.bucket(rows, width+1, firstSlot)
	for lo := 0; lo < len(rows); {
		slot, hi := firstSlot(rows[lo]), lo+1
		for hi < len(rows) && firstSlot(rows[hi]) == slot {
			hi++
		}
		group := rows[lo:hi]
		lo = hi
		// A counting pass costs the group plus the ranks; comparing
		// costs the group times its logarithm.
		if slot == 0 || len(group) < countingMinRows || len(w.touched) > 8*len(group) {
			slices.SortFunc(group, w.compareRows)
			continue
		}
		firstRank := func(r int32) uint32 { return w.rank[w.rows.IDs[int(r)*width+int(slot)-1]] }
		w.bucket(group, len(w.touched)+1, firstRank)
		for a := 0; a < len(group); {
			rank, b := firstRank(group[a]), a+1
			for b < len(group) && firstRank(group[b]) == rank {
				b++
			}
			if b-a > 1 {
				slices.SortFunc(group[a:b], w.compareRows)
			}
			a = b
		}
	}
}

// bucket sorts rows by key, which is below nkeys, stably and without
// comparing: count, prefix-sum, scatter.
func (w *ResultWriter) bucket(rows []int32, nkeys int, key func(int32) uint32) {
	w.count = append(w.count[:0], make([]uint32, nkeys)...)
	for _, r := range rows {
		w.count[key(r)]++
	}
	var sum uint32
	for k, c := range w.count {
		w.count[k], sum = sum, sum+c
	}
	if cap(w.tmp) < len(rows) {
		w.tmp = make([]int32, len(rows))
	}
	tmp := w.tmp[:len(rows)]
	for _, r := range rows {
		k := key(r)
		tmp[w.count[k]] = r
		w.count[k]++
	}
	copy(rows, tmp)
}

// compareRows orders two rows of the bound answer by their (slot,
// rank) sequences; see the ordering contract on ResultWriter.
func (w *ResultWriter) compareRows(a, b int32) int {
	width, words := len(w.rows.Vars), w.rows.Words
	ia, ib := w.rows.IDs[int(a)*width:], w.rows.IDs[int(b)*width:]
	ma, mb := w.rows.Masks[int(a)*words:(int(a)+1)*words], w.rows.Masks[int(b)*words:(int(b)+1)*words]
	for wi := range ma {
		x, y := ma[wi], mb[wi]
		for ; x != 0 && y != 0; x, y = x&(x-1), y&(y-1) {
			sx, sy := bits.TrailingZeros64(x), bits.TrailingZeros64(y)
			if sx != sy {
				return less(sx < sy)
			}
			if ra, rb := w.rank[ia[wi*64+sx]], w.rank[ib[wi*64+sx]]; ra != rb {
				return less(ra < rb)
			}
		}
		// One row binds a slot in this word that the other does not.
		// The other's next slot, if it has one, is in a later word and
		// so larger; if it has none it is a proper prefix.
		switch {
		case x != 0:
			return less(anySet(mb[wi+1:]))
		case y != 0:
			return less(!anySet(ma[wi+1:]))
		}
	}
	return 0
}

func less(aFirst bool) int {
	if aFirst {
		return -1
	}
	return 1
}

func anySet(words []uint64) bool {
	for _, m := range words {
		if m != 0 {
			return true
		}
	}
	return false
}

// WriteTriples appends the answer of a CONSTRUCT query as sorted,
// duplicate-free N-Triples — what rdf.WriteGraph writes for the graph
// Rows.Graph builds — instantiating the template on ID rows, one
// budget step per row.  Template constants the dictionary does not
// know get IDs past its end for the length of the call.
func (w *ResultWriter) WriteTriples(rows sparql.Rows, template []sparql.TriplePattern, b *sparql.Budget) (EncodeStats, error) {
	start := len(w.body)
	n, width, words := rows.Len(), len(rows.Vars), rows.Words

	// A template position is a slot (≥ 0) or a constant's ID (slot -1).
	type position struct {
		slot int
		id   rdf.ID
	}
	resolve := func(v sparql.Value) (position, bool) {
		if v.IsVar() {
			j, ok := slices.BinarySearch(rows.Vars, v.Var())
			return position{slot: j}, ok
		}
		if id, ok := rows.Dict.Lookup(v.IRI()); ok {
			return position{slot: -1, id: id}, true
		}
		k := slices.Index(w.side, v.IRI())
		if k < 0 {
			k = len(w.side)
			w.side = append(w.side, v.IRI())
		}
		return position{slot: -1, id: rdf.ID(rows.Dict.Len() + k)}, true
	}
	tmpl := make([][3]position, 0, len(template))
	for _, tp := range template {
		s, okS := resolve(tp.S)
		p, okP := resolve(tp.P)
		o, okO := resolve(tp.O)
		if okS && okP && okO { // else a variable no row can bind
			tmpl = append(tmpl, [3]position{s, p, o})
		}
	}
	w.begin(rows)
	defer w.end()

	w.triples = w.triples[:0]
	for i := 0; i < n; i++ {
		if err := b.Step(); err != nil {
			return EncodeStats{}, err
		}
		ids, mask := rows.IDs[i*width:], rows.Masks[i*words:(i+1)*words]
	next:
		for _, t := range tmpl {
			var tr [3]uint32
			for k, p := range t {
				switch {
				case p.slot < 0:
					tr[k] = uint32(p.id)
				case mask[p.slot/64]&(1<<uint(p.slot%64)) != 0:
					tr[k] = uint32(ids[p.slot])
				default:
					continue next
				}
			}
			for _, id := range tr {
				w.touch(rdf.ID(id))
			}
			w.triples = append(w.triples, tr)
		}
	}
	w.rankTouched(func(dst []byte, iri rdf.IRI) []byte { return iri.AppendNTriples(dst) })
	for i, tr := range w.triples {
		w.triples[i] = [3]uint32{w.rank[tr[0]], w.rank[tr[1]], w.rank[tr[2]]}
	}
	slices.SortFunc(w.triples, func(a, b [3]uint32) int {
		for k := range a {
			if a[k] != b[k] {
				return less(a[k] < b[k])
			}
		}
		return 0
	})
	w.triples = slices.Compact(w.triples)

	out := w.body
	for _, tr := range w.triples {
		out = append(out, w.escaped(tr[0])...)
		out = append(out, ' ')
		out = append(out, w.escaped(tr[1])...)
		out = append(out, ' ')
		out = append(out, w.escaped(tr[2])...)
		out = append(out, " .\n"...)
	}
	w.body = out
	return EncodeStats{Rows: len(w.triples), Bytes: len(out) - start, DistinctIRIs: len(w.touched)}, nil
}

// appendJSONString appends s as a JSON string, byte for byte what
// encoding/json writes (HTML-safe escaping, U+2028/9 escaped, invalid
// UTF-8 replaced).  Printable ASCII that needs no escape — nearly every
// IRI — is copied; anything else goes through encoding/json itself.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // cannot fail on a string
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
