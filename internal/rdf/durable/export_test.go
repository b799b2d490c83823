package durable

// FailNextAppend arms the append-failure hook for tests outside the
// package: the next WAL append writes its record and then fails with
// err, as a failed write would.
func FailNextAppend(s *Store, err error) { s.failAppend = err }
