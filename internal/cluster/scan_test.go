package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

func graphSource(g *rdf.Graph) StoreSource {
	return func() (rdf.Store, func()) { return g, g.AcquireRead() }
}

// awkwardIRIs exercise every layer an IRI crosses on the way out and
// back: URL encoding of the request, line splitting of a POST body,
// the length-prefixed dictionary, and byte-order sorting.
var awkwardIRIs = []rdf.IRI{
	"a", "b", "knows", "type", "Person", "", " ", "a b", "p>q", "o\nnl", "x&y=z", "100%", "%0A",
	"é", "\xff\x00", "http://ex.org/a#b?c", "aa", "a\x00",
}

func randomIRI(rng *rand.Rand) rdf.IRI { return awkwardIRIs[rng.Intn(len(awkwardIRIs))] }

func randomGraph(rng *rand.Rand, n int) *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < n; i++ {
		g.Add(randomIRI(rng), randomIRI(rng), randomIRI(rng))
	}
	return g
}

// randomPattern binds each position with probability 1/2, mostly to
// IRIs the alphabet contains and now and then to one no graph holds.
func randomPattern(rng *rand.Rand) sparql.TriplePattern {
	pos := func(v sparql.Var) sparql.Value {
		switch rng.Intn(8) {
		case 0, 1, 2, 3:
			return sparql.V(v)
		case 4:
			return sparql.I("never-interned")
		default:
			return sparql.I(randomIRI(rng))
		}
	}
	return sparql.TriplePattern{S: pos("s"), P: pos("p"), O: pos("o")}
}

// matchUnion is the oracle: the sorted duplicate-free union of the
// patterns' Match sets.
func matchUnion(g rdf.Store, tps []sparql.TriplePattern) []rdf.Triple {
	seen := map[rdf.Triple]bool{}
	for _, tp := range tps {
		pat := patternFromValues(ScanQuery(tp))
		g.Match(pat.s, pat.p, pat.o, func(t rdf.Triple) bool {
			seen[t] = true
			return true
		})
	}
	out := make([]rdf.Triple, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// postBody is the POST body for the patterns, one line each.
func postBody(tps []sparql.TriplePattern) string {
	var b strings.Builder
	for _, tp := range tps {
		b.WriteString(ScanQuery(tp).Encode())
		b.WriteByte('\n')
	}
	return b.String()
}

// frameFor encodes the frame a shard holding g answers tps with.
func frameFor(g *rdf.Graph, tps ...sparql.TriplePattern) []byte {
	pats := make([]scanPattern, len(tps))
	for i, tp := range tps {
		pats[i] = patternFromValues(ScanQuery(tp))
	}
	return buildFrame(collectMatches(graphSource(g), pats)).encode()
}

func allPattern() sparql.TriplePattern {
	return sparql.TriplePattern{S: sparql.V("s"), P: sparql.V("p"), O: sparql.V("o")}
}

// TestScanRoundTripProperty is the frame's defining property over
// random graphs and random pattern sets: what a client decodes is
// exactly the sorted duplicate-free union of the patterns' Match sets,
// whether it asks with GET (one pattern) or POST (many) — through the
// real handler, over HTTP.
func TestScanRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 60; round++ {
		g := randomGraph(rng, rng.Intn(80))
		srv := httptest.NewServer(ScanHandler(graphSource(g)))
		for trial := 0; trial < 5; trial++ {
			tps := make([]sparql.TriplePattern, rng.Intn(6))
			for i := range tps {
				tps[i] = randomPattern(rng)
			}
			resp, err := srv.Client().Post(srv.URL+"/scan", "text/plain", strings.NewReader(postBody(tps)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ParseScanBody(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("round %d POST %v: %v", round, tps, err)
			}
			if want := matchUnion(g, tps); !slices.Equal(got, want) {
				t.Fatalf("round %d POST %v:\n got %v\nwant %v", round, tps, got, want)
			}
			if len(tps) == 0 {
				continue
			}
			resp, err = srv.Client().Get(srv.URL + "/scan?" + ScanQuery(tps[0]).Encode())
			if err != nil {
				t.Fatal(err)
			}
			got, err = ParseScanBody(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("round %d GET %v: %v", round, tps[0], err)
			}
			if want := matchUnion(g, tps[:1]); !slices.Equal(got, want) {
				t.Fatalf("round %d GET %v:\n got %v\nwant %v", round, tps[0], got, want)
			}
		}
		srv.Close()
	}
}

// TestScanBindingShapes pins the match counts of every binding shape
// on a hand-written graph, the all-bound and the never-seen constant
// included.
func TestScanBindingShapes(t *testing.T) {
	g := rdf.NewGraph()
	g.Add("a", "knows", "b")
	g.Add("a", "type", "Person")
	g.Add("b", "knows", "c")
	cases := []struct {
		tp   sparql.TriplePattern
		want int
	}{
		{sparql.TriplePattern{S: sparql.V("x"), P: sparql.V("p"), O: sparql.V("y")}, 3},
		{sparql.TriplePattern{S: sparql.V("x"), P: sparql.I("knows"), O: sparql.V("y")}, 2},
		{sparql.TriplePattern{S: sparql.I("a"), P: sparql.I("knows"), O: sparql.V("y")}, 1},
		{sparql.TriplePattern{S: sparql.I("a"), P: sparql.I("knows"), O: sparql.I("b")}, 1},
		{sparql.TriplePattern{S: sparql.I("zz"), P: sparql.V("p"), O: sparql.V("y")}, 0},
	}
	for _, tc := range cases {
		ts, err := ParseScanBody(bytes.NewReader(frameFor(g, tc.tp)))
		if err != nil {
			t.Fatalf("pattern %v: %v", tc.tp, err)
		}
		if len(ts) != tc.want {
			t.Fatalf("pattern %v: got %d triples, want %d", tc.tp, len(ts), tc.want)
		}
	}
	// Overlapping patterns contribute each triple once.
	ts, err := ParseScanBody(bytes.NewReader(frameFor(g, cases[0].tp, cases[1].tp, cases[2].tp)))
	if err != nil || len(ts) != 3 {
		t.Fatalf("overlapping patterns: %d triples, err %v; want 3", len(ts), err)
	}
}

// TestScanRequestBounds checks the shard refuses what it should: an
// oversized POST body with 413, too many patterns or an unparsable
// line with 400, other methods with 405.
func TestScanRequestBounds(t *testing.T) {
	srv := httptest.NewServer(ScanHandler(graphSource(rdf.NewGraph())))
	defer srv.Close()
	post := func(body string) int {
		resp, err := srv.Client().Post(srv.URL+"/scan", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(strings.Repeat("p=knows\n", maxScanPatterns)); got != http.StatusOK {
		t.Fatalf("%d patterns: HTTP %d, want 200", maxScanPatterns, got)
	}
	if got := post(strings.Repeat("p=knows\n", maxScanPatterns+1)); got != http.StatusBadRequest {
		t.Fatalf("%d patterns: HTTP %d, want 400", maxScanPatterns+1, got)
	}
	if got := post("s=" + strings.Repeat("x", maxScanRequestBytes)); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", got)
	}
	if got := post("s=%zz\n"); got != http.StatusBadRequest {
		t.Fatalf("unparsable line: HTTP %d, want 400", got)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/scan", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: HTTP %d, want 405", resp.StatusCode)
	}
}

// reseal recomputes a tampered frame's CRC, so that the decoder's
// checks behind the CRC can be reached.
func reseal(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

// TestDecodeFrameFaults is the fault table of the frame: every way a
// response can arrive damaged is an ErrTornScan (retryable) and yields
// no triples; a frame that is whole but not ours is permanent.
func TestDecodeFrameFaults(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(7)), 60)
	good := frameFor(g, allPattern())
	f, err := decodeScanFrame(good)
	if err != nil || len(f.triples) != g.Len() {
		t.Fatalf("well-formed frame: %d triples, err %v", len(f.triples), err)
	}
	clone := func() []byte { return append([]byte(nil), good...) }

	torn := map[string][]byte{
		"empty body":        nil,
		"magic only":        good[:4],
		"torn mid-body":     good[:len(good)/2],
		"truncated trailer": good[:len(good)-3],
		"one byte short":    good[:len(good)-1],
		"trailing garbage":  append(clone(), 0),
	}
	miscount := clone()
	binary.LittleEndian.PutUint32(miscount[len(miscount)-8:], uint32(g.Len()+1))
	torn["count mismatch"] = reseal(miscount)
	for name, b := range torn {
		f, err := decodeScanFrame(b)
		var te ErrTornScan
		if !errors.As(err, &te) {
			t.Errorf("%s: error %v is not ErrTornScan", name, err)
		}
		if !retryable(err) || len(f.triples) != 0 {
			t.Errorf("%s: retryable=%v, %d triples leaked", name, retryable(err), len(f.triples))
		}
	}

	// One flipped bit, anywhere: behind the magic it is torn; inside the
	// magic the frame is not ours.  Never accepted.
	for i := 0; i < len(good)*8; i++ {
		b := clone()
		b[i/8] ^= 1 << (i % 8)
		f, err := decodeScanFrame(b)
		var te ErrTornScan
		switch {
		case err == nil || len(f.triples) != 0:
			t.Fatalf("bit %d flipped: frame accepted (%d triples)", i, len(f.triples))
		case i/8 < len(frameMagic) && retryable(err):
			t.Fatalf("bit %d flipped in the magic: %v is retryable", i, err)
		case i/8 >= len(frameMagic) && !errors.As(err, &te):
			t.Fatalf("bit %d flipped: %v is not ErrTornScan", i, err)
		}
	}

	// Whole but wrong: the CRC holds and the layout does not.
	bad := map[string][]byte{
		"wrong version": reseal(append([]byte("NSF2"), good[4:]...)),
		"not a frame":   []byte("<a> <p> <o> .\n<b> <p> <o> .\n"),
	}
	unsorted := scanFrame{iris: []rdf.IRI{"b", "a"}}.encode()
	bad["unsorted dictionary"] = unsorted
	bad["repeated dictionary entry"] = scanFrame{iris: []rdf.IRI{"a", "a"}}.encode()
	bad["index beyond dictionary"] = scanFrame{iris: []rdf.IRI{"a"}, triples: []rdf.IDTriple{{S: 0, P: 1, O: 0}}}.encode()
	bad["repeated triple"] = scanFrame{iris: []rdf.IRI{"a"}, triples: []rdf.IDTriple{{}, {}}}.encode()
	stray := scanFrame{iris: []rdf.IRI{"a"}}.encode()
	bad["stray bytes"] = reseal(append(append(stray[:len(stray)-8:len(stray)-8], 0), stray[len(stray)-8:]...))
	for name, b := range bad {
		f, err := decodeScanFrame(b)
		if err == nil || retryable(err) || len(f.triples) != 0 {
			t.Errorf("%s: err %v, retryable %v, %d triples", name, err, err != nil && retryable(err), len(f.triples))
		}
	}
}

// TestDecodeFrameHostileLengths seals frames whose length prefixes
// promise far more than the body holds: each is refused, and refusing
// it allocates next to nothing.
func TestDecodeFrameHostileLengths(t *testing.T) {
	frame := func(body ...uint64) []byte {
		b := []byte(frameMagic)
		for _, v := range body {
			b = binary.AppendUvarint(b, v)
		}
		b = binary.LittleEndian.AppendUint32(b, 0)
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	cases := map[string][]byte{
		"huge dictionary":       frame(1<<40, 0),
		"huge dictionary entry": frame(1, 1<<40, 0),
		"huge triple count":     frame(0, 1<<40),
		"max uvarint":           frame(^uint64(0), ^uint64(0)),
		"triple count > body/3": frame(0, 3, 0, 0, 0),
	}
	for name, b := range cases {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		f, err := decodeScanFrame(b)
		runtime.ReadMemStats(&ms1)
		if err == nil || len(f.triples) != 0 || len(f.iris) != 0 {
			t.Errorf("%s: accepted", name)
		}
		if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 4096 {
			t.Errorf("%s: refusing a %d-byte frame allocated %d bytes", name, len(b), grew)
		}
	}
}

// TestScanQueryRendering checks constants render as parameters and
// variables stay wildcards.
func TestScanQueryRendering(t *testing.T) {
	tp := sparql.TriplePattern{S: sparql.I("s1"), P: sparql.V("p"), O: sparql.I("o1")}
	v := ScanQuery(tp)
	if v.Get("s") != "s1" || v.Has("p") || v.Get("o") != "o1" {
		t.Fatalf("ScanQuery = %v", v)
	}
	if ScanQuery(allPattern()).Encode() != "" {
		t.Fatal("all-variable pattern should render no parameters")
	}
}

// --- fuzzing ---

var updateCorpus = flag.Bool("update", false, "rewrite the committed FuzzDecodeScanFrame seed corpus")

// corpusFrames are the seeds of FuzzDecodeScanFrame: valid frames of a
// few shapes, and truncations of each.
func corpusFrames() map[string][]byte {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 40)
	valid := map[string][]byte{
		"empty":    frameFor(rdf.NewGraph(), allPattern()),
		"all":      frameFor(g, allPattern()),
		"one":      frameFor(rdf.FromTriples(tr("a", "p", "b")), allPattern()),
		"patterns": frameFor(g, randomPattern(rng), randomPattern(rng), randomPattern(rng)),
	}
	out := map[string][]byte{}
	for name, b := range valid {
		out[name] = b
		out[name+"-half"] = b[:len(b)/2]
		out[name+"-notrailer"] = b[:len(b)-frameTrailer]
		out[name+"-short1"] = b[:len(b)-1]
	}
	return out
}

const corpusDir = "testdata/fuzz/FuzzDecodeScanFrame"

// TestFuzzCorpusCurrent holds the committed seed corpus to the frames
// this build encodes, so a format change cannot leave the fuzzer
// seeded with frames it rejects at the magic.  Regenerate with
// `go test ./internal/cluster -run TestFuzzCorpusCurrent -update`.
func TestFuzzCorpusCurrent(t *testing.T) {
	for name, b := range corpusFrames() {
		path := filepath.Join(corpusDir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if *updateCorpus {
			if err := os.MkdirAll(corpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("seed missing (run with -update): %v", err)
		}
		if string(got) != want {
			t.Errorf("seed %s is stale (run with -update)", name)
		}
	}
}

// FuzzDecodeScanFrame: the decoder never panics, and whatever it
// accepts is a frame whose CRC and count hold, whose invariants hold,
// and which encodes back to a frame that decodes the same.  The seeds
// are the committed corpus (see TestFuzzCorpusCurrent).
func FuzzDecodeScanFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := decodeScanFrame(b)
		if err != nil {
			if len(fr.triples) != 0 || len(fr.iris) != 0 {
				t.Fatalf("rejected frame leaked %d triples, %d IRIs", len(fr.triples), len(fr.iris))
			}
			return
		}
		if crc32.ChecksumIEEE(b[:len(b)-4]) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
			t.Fatal("accepted a frame whose CRC is wrong")
		}
		if int(binary.LittleEndian.Uint32(b[len(b)-8:])) != len(fr.triples) {
			t.Fatal("accepted a frame whose count is wrong")
		}
		for i, iri := range fr.iris {
			if i > 0 && fr.iris[i-1] >= iri {
				t.Fatalf("dictionary not strictly sorted at %d", i)
			}
		}
		for i, t3 := range fr.triples {
			if n := rdf.ID(len(fr.iris)); t3.S >= n || t3.P >= n || t3.O >= n {
				t.Fatalf("triple %d beyond the dictionary", i)
			}
			if i > 0 && rdf.CompareSPO(fr.triples[i-1], t3) >= 0 {
				t.Fatalf("run not strictly sorted at %d", i)
			}
		}
		if _, err := rdf.NewGraphFromSnapshot(fr.iris, fr.triples); err != nil {
			t.Fatalf("accepted frame does not load: %v", err)
		}
		again, err := decodeScanFrame(fr.encode())
		if err != nil || len(again.triples) != len(fr.triples) || len(again.iris) != len(fr.iris) {
			t.Fatalf("re-encoded frame decodes differently: %v", err)
		}
	})
}
