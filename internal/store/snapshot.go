package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"unicode/utf8"
)

// This file adds durability to the store: a snapshot format (one JSON-encoded
// triple per line) that can be written to and re-read from any
// io.Writer/Reader. The format is line-oriented so that snapshots of large
// stores can be streamed and partially inspected with ordinary text tools.
//
// Format contract: one JSON object per line; blank lines are ignored and do
// not count as entries. The decoder splits a line written in Snapshot's own
// canonical form in place, without reflection, and hands every other line to
// encoding/json — so any input in the one-object-per-line format decodes
// exactly as encoding/json decodes it line by line, field-name case folding,
// escapes and extra fields included.

// Snapshot writes every triple to w, one JSON object per line, in the
// canonical sorted order of Triples. Two stores holding the same triples
// produce byte-identical snapshots, whatever order they were ingested in. It
// returns the number of triples written.
func (s *Store) Snapshot(w io.Writer) (int, error) {
	return writeSnapshot(w, s.Triples(), "snapshot")
}

// writeSnapshot writes triples to w in the snapshot format, one JSON object
// per line, and returns how many it wrote; what names the snapshot in
// errors. It is the one writer behind Store.Snapshot and View.Snapshot.
func writeSnapshot(w io.Writer, triples []Triple, what string) (int, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, t := range triples {
		if err := enc.Encode(t); err != nil {
			return 0, fmt.Errorf("store: encoding %s: %w", what, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("store: flushing %s: %w", what, err)
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
	err := decodeSnapshot(bufio.NewReaderSize(r, snapshotReadBuffer), func(t Triple) error {
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
	if err := decodeSnapshot(bufio.NewReaderSize(r, snapshotReadBuffer), func(t Triple) error {
		ts = append(ts, t)
		return nil
	}); err != nil {
		return nil, err
	}
	return ts, nil
}

// snapshotReadBuffer is the decoder's read buffer: most lines are split
// inside it without a copy; a longer line is reassembled.
const snapshotReadBuffer = 64 << 10

// decodeSnapshot is the one snapshot decoder behind Restore and
// DecodeSnapshot: it streams every entry to emit in file order and stops at
// the first malformed entry, invalid triple or emit error, reporting
// entries by their 1-based number among the non-blank lines.
//
// A line in Snapshot's canonical form is split in place (splitCanonical);
// any other line goes through json.Unmarshal. Components are interned
// through a per-decode table, so a name repeated across the corpus — a
// predicate, a class, a subject's run of triples — is held by one string
// rather than one per occurrence (see nameCache).
func decodeSnapshot(br *bufio.Reader, emit func(Triple) error) error {
	names := new(nameCache)
	var long []byte // a line longer than br's buffer, reassembled
	for entry := 1; ; {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err != nil && err != io.EOF {
			return fmt.Errorf("store: decoding snapshot entry %d: %w", entry, err)
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		if trimmed := bytes.Trim(line, " \t\r"); len(trimmed) > 0 {
			var t Triple
			if s, p, o, ok := splitCanonical(trimmed); ok {
				t = Triple{names.ofBytes(s), names.ofBytes(p), names.ofBytes(o)}
			} else {
				// Unmarshal gets the whole line, surrounding whitespace
				// included, which its error offsets count; and a variable
				// of its own, since taking t's address would move t to the
				// heap on every line.
				var u Triple
				if uerr := json.Unmarshal(line, &u); uerr != nil {
					return fmt.Errorf("store: decoding snapshot entry %d: %w", entry, uerr)
				}
				t = Triple{names.of(u.Subject), names.of(u.Predicate), names.of(u.Object)}
			}
			if !t.valid() {
				return fmt.Errorf("store: snapshot entry %d: triple %v has an empty component", entry, t)
			}
			if eerr := emit(t); eerr != nil {
				return eerr
			}
			entry++
		}
		if err == io.EOF {
			return nil
		}
	}
}

// nameCacheSlots is the size of a decode's name cache (a power of two).
const nameCacheSlots = 1 << 12

// nameCache interns the components of one decode: a direct-mapped table
// from a name's hash to the last string decoded with that hash. A hit
// returns the cached string instead of allocating a copy; a miss allocates
// and takes the slot. Snapshot lines come sorted by subject, and corpora
// draw predicates and classes from small vocabularies, so nearly every
// repeated name hits — while the table stays a fixed 64 KiB whatever the
// corpus, never growing or rehashing as a map would.
type nameCache [nameCacheSlots]string

// ofBytes returns the cached string equal to b, caching a copy of b on a
// miss.
func (c *nameCache) ofBytes(b []byte) string {
	slot := &c[nameHash(b)&(nameCacheSlots-1)]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// of returns the cached string equal to s, caching s itself on a miss.
func (c *nameCache) of(s string) string {
	slot := &c[nameHash([]byte(s))&(nameCacheSlots-1)]
	if *slot != s {
		*slot = s
	}
	return *slot
}

// nameHash is 32-bit FNV-1a: names are short, and the cache needs spread,
// not strength.
func nameHash(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// The fixed parts of a canonical snapshot line, as json.Encoder writes a
// Triple: {"Subject":"s","Predicate":"p","Object":"o"}.
var (
	canonOpen      = []byte(`{"Subject":"`)
	canonPredicate = []byte(`","Predicate":"`)
	canonObject    = []byte(`","Object":"`)
	canonClose     = []byte(`"}`)
)

// splitCanonical splits a line (surrounding whitespace already trimmed) in
// Snapshot's canonical form into its three raw components, reporting false
// for any other line. A line qualifies only if it holds no backslash, no
// byte below 0x20 and only valid UTF-8: then every quote in it delimits a
// string, each string's raw bytes are its value, and json.Unmarshal would
// decode the line to exactly these components — so the split is exact, not
// a heuristic.
func splitCanonical(line []byte) (s, p, o []byte, ok bool) {
	ascii := true
	for _, c := range line {
		if c < 0x20 || c == '\\' {
			return nil, nil, nil, false
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	if !ascii && !utf8.Valid(line) {
		return nil, nil, nil, false
	}
	rest, ok := bytes.CutPrefix(line, canonOpen)
	if !ok {
		return nil, nil, nil, false
	}
	if s, rest, ok = cutString(rest, canonPredicate); !ok {
		return nil, nil, nil, false
	}
	if p, rest, ok = cutString(rest, canonObject); !ok {
		return nil, nil, nil, false
	}
	if o, rest, ok = cutString(rest, canonClose); !ok || len(rest) > 0 {
		return nil, nil, nil, false
	}
	return s, p, o, true
}

// cutString splits b at its first quote, which must open sep: it returns
// the bytes before the quote and the bytes after sep.
func cutString(b, sep []byte) (val, rest []byte, ok bool) {
	i := bytes.IndexByte(b, '"')
	if i < 0 || !bytes.HasPrefix(b[i:], sep) {
		return nil, nil, false
	}
	return b[:i], b[i+len(sep):], true
}
