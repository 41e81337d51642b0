package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// This file adds durability to the store: a snapshot format (one JSON-encoded
// triple per line) that can be written to and re-read from any
// io.Writer/Reader. The format is line-oriented so that snapshots of large
// stores can be streamed and partially inspected with ordinary text tools.

// Snapshot writes every triple to w, one JSON object per line, in the
// canonical sorted order of Triples. Two stores holding the same triples
// produce byte-identical snapshots, whatever order they were ingested in. It
// returns the number of triples written.
func (s *Store) Snapshot(w io.Writer) (int, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	triples := s.Triples()
	for _, t := range triples {
		if err := enc.Encode(t); err != nil {
			return 0, fmt.Errorf("store: encoding snapshot: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("store: flushing snapshot: %w", err)
	}
	return len(triples), nil
}

// restoreChunk is how many decoded triples Restore accumulates before
// flushing them to the store in one AddBatch.
const restoreChunk = 4096

// Restore reads a snapshot produced by Snapshot and adds every triple to the
// store (existing triples are kept; duplicates are ignored). It returns the
// number of triples added.
//
// Partial-commit contract: a malformed or invalid entry aborts the restore
// with an error identifying the entry number, and the valid triples read
// before the error REMAIN in the store — Restore streams through the batch
// path in chunks and is deliberately not transactional, so a
// multi-gigabyte snapshot never has to be buffered whole. Callers that must
// not observe (or serve, or journal) a partially restored corpus decode it
// whole with DecodeSnapshot first — the same decoder — and assert it only
// on success, as cmd/ontoserve does:
//
//	ts, err := store.DecodeSnapshot(r)
//	if err != nil {
//	    return err // nothing reached the store
//	}
//	_, err = s.AddBatch(ts)
//
// Ingest goes through the batch path in chunks, so restoring a large
// snapshot locks each index shard a handful of times instead of three times
// per triple.
func Restore(s *Store, r io.Reader) (int, error) {
	added := 0
	chunk := make([]Triple, 0, restoreChunk)
	flush := func() error {
		n, err := s.AddBatch(chunk)
		added += n
		chunk = chunk[:0]
		return err
	}
	err := decodeSnapshot(r, func(t Triple) error {
		chunk = append(chunk, t)
		if len(chunk) == restoreChunk {
			return flush()
		}
		return nil
	})
	// The valid prefix is flushed even when decoding failed; a flush
	// failure takes precedence over the decoding error it follows.
	if ferr := flush(); ferr != nil {
		return added, ferr
	}
	return added, err
}

// DecodeSnapshot reads a whole snapshot produced by Snapshot into memory, in
// file order (duplicates kept). It is all-or-nothing: a malformed or invalid
// entry returns an error identifying the entry number and no triples, so a
// caller that asserts the result only on success can never serve a
// partially loaded corpus — without staging it through a scratch store.
func DecodeSnapshot(r io.Reader) ([]Triple, error) {
	var ts []Triple
	if err := decodeSnapshot(r, func(t Triple) error {
		ts = append(ts, t)
		return nil
	}); err != nil {
		return nil, err
	}
	return ts, nil
}

// decodeSnapshot is the one snapshot decoder behind Restore and
// DecodeSnapshot: it streams every entry to emit in file order and stops at
// the first malformed entry, invalid triple or emit error, reporting
// entries by their 1-based number.
func decodeSnapshot(r io.Reader, emit func(Triple) error) error {
	dec := json.NewDecoder(r)
	for line := 1; ; line++ {
		var t Triple
		err := dec.Decode(&t)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: decoding snapshot entry %d: %w", line, err)
		}
		if !t.valid() {
			return fmt.Errorf("store: snapshot entry %d: triple %v has an empty component", line, t)
		}
		if err := emit(t); err != nil {
			return err
		}
	}
}
