package durable_test

import (
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/rdf/durable"
	"repro/internal/serve"
)

// TestFailedAppendPublishesNothing drives the durable backend through
// nsserve's serving front: an /insert whose WAL append fails answers
// 500 saying the insert was not applied, and the store's Len, Epoch
// and a /query answer are what they were before it.  The next /insert
// commits, and a restart recovers it and not the failed one.
func TestFailedAppendPublishesNothing(t *testing.T) {
	dir := t.TempDir()
	ds, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ds.Close() }()
	front := serve.New(serve.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}, serve.NewStore(ds, 0, 1))
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		front.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/insert", strings.NewReader(body)))
		return rec
	}
	query := func() string {
		rec := httptest.NewRecorder()
		front.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?syntax=paper&q="+url.QueryEscape("(?x p ?y)"), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/query: %d %s", rec.Code, rec.Body)
		}
		return rec.Body.String()
	}

	if rec := post("a p b .\nb p c .\n"); rec.Code != http.StatusOK {
		t.Fatalf("first /insert: %d %s", rec.Code, rec.Body)
	}
	n, epoch, answer := ds.Len(), ds.Epoch(), query()

	durable.FailNextAppend(ds, errors.New("injected write failure"))
	rec := post("c p d .\nd p e .\na p b .\n")
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "insert not applied") {
		t.Fatalf("/insert under a failing append: %d %s", rec.Code, rec.Body)
	}
	if ds.Len() != n || ds.Epoch() != epoch {
		t.Fatalf("failed append published: Len %d -> %d, Epoch %d -> %d", n, ds.Len(), epoch, ds.Epoch())
	}
	if got := query(); got != answer {
		t.Fatalf("readers see the failed insert:\n%s\nwant\n%s", got, answer)
	}

	if rec := post("e p f .\n"); rec.Code != http.StatusOK {
		t.Fatalf("/insert after the failure: %d %s", rec.Code, rec.Body)
	}
	if err := ds.Close(); err == nil {
		t.Fatal("Close forgot the failed append")
	}
	r, err := durable.Open(dir, durable.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if want := rdf.MustParseGraph("a p b .\nb p c .\ne p f .\n"); !r.Equal(want) {
		t.Fatalf("recovered:\n%swant:\n%s", r, want)
	}
}
