package rdf

// ID is an interned identifier for an IRI within a Dict.  IDs are dense
// and start at 0, so they can index slices directly.
type ID uint32

// Dict interns IRIs to dense integer IDs.  Graphs share terms through a
// Dict so that triple storage and matching operate on machine words
// instead of strings.
//
// A Dict is not safe for concurrent mutation; concurrent readers are
// fine once no more terms are being added.
type Dict struct {
	byIRI map[IRI]ID
	byID  []IRI
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byIRI: make(map[IRI]ID)}
}

// Intern returns the ID for iri, assigning a fresh one if needed.
func (d *Dict) Intern(iri IRI) ID {
	if id, ok := d.byIRI[iri]; ok {
		return id
	}
	id := ID(len(d.byID))
	d.byIRI[iri] = id
	d.byID = append(d.byID, iri)
	return id
}

// Lookup returns the ID for iri and whether it is present.
func (d *Dict) Lookup(iri IRI) (ID, bool) {
	id, ok := d.byIRI[iri]
	return id, ok
}

// IRI returns the IRI for a previously interned ID.  It panics if id
// was never assigned by this dictionary.
func (d *Dict) IRI(id ID) IRI {
	return d.byID[id]
}

// Len reports the number of interned IRIs.
func (d *Dict) Len() int { return len(d.byID) }

// truncate forgets every term interned after the first n: the undo of
// a batch whose write-ahead log refused it, before any triple used
// them.
func (d *Dict) truncate(n int) {
	for _, iri := range d.byID[n:] {
		delete(d.byIRI, iri)
	}
	clear(d.byID[n:])
	d.byID = d.byID[:n]
}
