package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New()
	s.MustAdd(Triple{"a", "type", "car"})
	s.MustAdd(Triple{"b", "type", "dog"})
	s.MustAdd(Triple{"a", "color", "red"})

	var buf bytes.Buffer
	n, err := s.Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("Snapshot wrote %d triples, want 3", n)
	}

	restored := New()
	added, err := Restore(restored, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if added != 3 || restored.Len() != 3 {
		t.Errorf("Restore added %d, Len %d; want 3 and 3", added, restored.Len())
	}
	for _, tr := range s.Query(Pattern{}) {
		if !restored.Contains(tr) {
			t.Errorf("restored store is missing %v", tr)
		}
	}
}

func TestRestoreIntoNonEmptyStoreIgnoresDuplicates(t *testing.T) {
	s := New()
	s.MustAdd(Triple{"a", "type", "car"})
	var buf bytes.Buffer
	if _, err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	added, err := Restore(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || s.Len() != 1 {
		t.Errorf("restoring a snapshot into its own store added %d (Len %d), want 0 (1)", added, s.Len())
	}
}

func TestRestoreMalformedInput(t *testing.T) {
	s := New()
	if _, err := Restore(s, strings.NewReader("{not json}\n")); err == nil {
		t.Error("Restore accepted malformed JSON")
	}
	// A structurally valid but semantically invalid triple (empty component).
	if _, err := Restore(New(), strings.NewReader(`{"Subject":"","Predicate":"p","Object":"o"}`)); err == nil {
		t.Error("Restore accepted a triple with an empty component")
	}
	// Valid prefix before the malformed entry is preserved.
	partial := New()
	added, err := Restore(partial, strings.NewReader(`{"Subject":"a","Predicate":"p","Object":"o"}`+"\n{bad"))
	if err == nil {
		t.Error("Restore should report the malformed tail")
	}
	if added != 1 || !partial.Contains(Triple{"a", "p", "o"}) {
		t.Errorf("valid prefix should be preserved: added=%d", added)
	}
}

// TestDecodeSnapshotAllOrNothing pins the staging decoder Restore shares:
// a clean snapshot decodes whole, in file order with duplicates kept, and
// any malformed or invalid entry yields no triples and an error naming the
// entry — the same numbering Restore reports.
func TestDecodeSnapshotAllOrNothing(t *testing.T) {
	good := `{"Subject":"b","Predicate":"p","Object":"o"}
{"Subject":"a","Predicate":"p","Object":"o"}
{"Subject":"b","Predicate":"p","Object":"o"}
`
	ts, err := DecodeSnapshot(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Triple{{"b", "p", "o"}, {"a", "p", "o"}, {"b", "p", "o"}}; fmt.Sprint(ts) != fmt.Sprint(want) {
		t.Fatalf("DecodeSnapshot = %v, want %v", ts, want)
	}
	for _, bad := range []string{
		good + "{bad\n",
		good + `{"Subject":"","Predicate":"p","Object":"o"}`,
	} {
		ts, err := DecodeSnapshot(strings.NewReader(bad))
		if err == nil || ts != nil {
			t.Fatalf("DecodeSnapshot of a bad 4th entry = %v, %v; want no triples and an error", ts, err)
		}
		_, rerr := Restore(New(), strings.NewReader(bad))
		if !strings.Contains(err.Error(), "entry 4") || rerr == nil || rerr.Error() != err.Error() {
			t.Fatalf("DecodeSnapshot error %q and Restore error %v must both name entry 4", err, rerr)
		}
	}
}

// TestSnapshotRestoreProperty checks the round trip over random stores.
func TestSnapshotRestoreProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		for i := 0; i < 40; i++ {
			s.MustAdd(Triple{
				Subject:   fmt.Sprintf("s%d", rng.Intn(10)),
				Predicate: fmt.Sprintf("p%d", rng.Intn(4)),
				Object:    fmt.Sprintf("o%d", rng.Intn(10)),
			})
		}
		var buf bytes.Buffer
		if _, err := s.Snapshot(&buf); err != nil {
			return false
		}
		restored := New()
		if _, err := Restore(restored, &buf); err != nil {
			return false
		}
		if restored.Len() != s.Len() {
			return false
		}
		for _, tr := range s.Query(Pattern{}) {
			if !restored.Contains(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotByteStabilityAtScale is the satellite check for the canonical
// export order: at 10⁵ triples, a snapshot, its restore into a fresh store,
// and a snapshot of a store ingested in a completely different order must
// all be byte-identical, and the restored store must hold exactly the
// original triples.
func TestSnapshotByteStabilityAtScale(t *testing.T) {
	const n = 100_000
	triples := make([]Triple, n)
	for i := range triples {
		triples[i] = Triple{
			Subject:   fmt.Sprintf("inst-%d", i),
			Predicate: TypePredicate,
			Object:    fmt.Sprintf("class-%d", i%317),
		}
	}
	s := New()
	if _, err := s.AddBatch(triples); err != nil {
		t.Fatal(err)
	}

	var first bytes.Buffer
	if _, err := s.Snapshot(&first); err != nil {
		t.Fatal(err)
	}

	restored := New()
	added, err := Restore(restored, bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if added != n || restored.Len() != n {
		t.Fatalf("restore added %d triples into a store of %d, want %d", added, restored.Len(), n)
	}
	var second bytes.Buffer
	if _, err := restored.Snapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("snapshot of the restored store differs byte-for-byte from the original")
	}

	// A third store, ingested in reverse order so every symbol gets a
	// different id and lands on different shards.
	reversed := New()
	for i := n - 1; i >= 0; i-- {
		if _, err := reversed.Add(triples[i]); err != nil {
			t.Fatal(err)
		}
	}
	var third bytes.Buffer
	if _, err := reversed.Snapshot(&third); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), third.Bytes()) {
		t.Fatal("snapshots differ across ingest orders")
	}
}

// decodeLinesReference is the decoder's specification: the input split at
// newlines, blank lines (JSON whitespace only) skipped, and every other line
// decoded by json.Unmarshal on its own, entries numbered among the non-blank
// lines. It returns the triples, or the error the decoder must report.
func decodeLinesReference(data []byte) ([]Triple, error) {
	var ts []Triple
	entry := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.Trim(line, " \t\r")) == 0 {
			continue
		}
		entry++
		var t Triple
		if err := json.Unmarshal(line, &t); err != nil {
			return nil, fmt.Errorf("store: decoding snapshot entry %d: %w", entry, err)
		}
		if !t.valid() {
			return nil, fmt.Errorf("store: snapshot entry %d: triple %v has an empty component", entry, t)
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// FuzzDecodeSnapshot holds DecodeSnapshot — the in-place split of canonical
// lines and the encoding/json fallback for every other line — to the
// per-line encoding/json reference: the same triples, or the same error at
// the same entry. The seeds cover the lines the split must refuse (escapes,
// raw U+2028, invalid UTF-8, control bytes, reordered, lower-case or extra
// keys) and the line framing (blank lines, CRLF, no final newline); a
// second decode behind a 16-byte read buffer covers lines longer than the
// buffer.
func FuzzDecodeSnapshot(f *testing.F) {
	canon := `{"Subject":"a","Predicate":"p","Object":"o"}`
	for _, seed := range []string{
		canon + "\n",
		canon + "\n" + `{"Subject":"b","Predicate":"p","Object":"o2"}` + "\n",
		`{"Subject":"a\"b","Predicate":"p\\q","Object":"A\n"}` + "\n",
		`{"Subject":"a` + "\u2028" + `b","Predicate":"p","Object":"o"}` + "\n",
		`{"Subject":"a\u2028b","Predicate":"p","Object":"o"}` + "\n",
		`{"Subject":"a` + "\xff" + `b","Predicate":"p","Object":"o"}` + "\n",
		`{"Subject":"a` + "\x01" + `b","Predicate":"p","Object":"o"}` + "\n",
		`{"Subject":"a` + "\x7f" + `b","Predicate":"p","Object":"é"}` + "\n",
		`{"Object":"o","Subject":"s","Predicate":"p"}` + "\n",
		`{"subject":"s","predicate":"p","object":"o"}` + "\n",
		`{"Subject":"s","Predicate":"p","Object":"o","Extra":1}` + "\n",
		`{"Subject":"s","Subject":"t","Predicate":"p","Object":"o"}` + "\n",
		`{ "Subject" : "s" , "Predicate" : "p" , "Object" : "o" }` + "\n",
		`{"Subject":"s","Predicate":"p","Object":1}` + "\n",
		`{"Subject":"","Predicate":"p","Object":"o"}` + "\n",
		"null\n",
		"[]\n" + canon + "\n",
		canon + canon + "\n",
		"\n\n  \t\n" + canon + "\n\n" + canon + "\n \n",
		canon + "\r\n" + canon + "\r\n",
		canon + "\n\r\n" + canon,
		canon,
		"{bad\n" + canon + "\n",
		canon + "\n{bad",
		`{"Subject":"` + strings.Repeat("x", 100) + `","Predicate":"p","Object":"o"}` + "\n" + canon + "\n",
		`{"Subject":"` + strings.Repeat("x", 100) + `\"","Predicate":"p","Object":"o"}`,
		"\n" + strings.Repeat("x", 100),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := decodeLinesReference(data)
		got, err := DecodeSnapshot(bytes.NewReader(data))
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("DecodeSnapshot(%q) error %v, reference %v", data, err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeSnapshot(%q) = %q, reference %q", data, got, want)
		}
		// The same decoder behind bufio's smallest buffer, so nearly every
		// line is longer than the buffer and goes through reassembly.
		var small []Triple
		err = decodeSnapshot(bufio.NewReaderSize(bytes.NewReader(data), 16), func(tr Triple) error {
			small = append(small, tr)
			return nil
		})
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("16-byte-buffer decode of %q: error %v, reference %v", data, err, werr)
		}
		if werr == nil && !reflect.DeepEqual(small, want) {
			t.Fatalf("16-byte-buffer decode of %q = %q, reference %q", data, small, want)
		}
	})
}

// TestDecodeSnapshotInternsNames pins the decoder's name table: a name
// repeated across lines decodes to one string, not one per occurrence —
// through the in-place split and the encoding/json fallback alike.
func TestDecodeSnapshotInternsNames(t *testing.T) {
	in := `{"Subject":"a","Predicate":"p","Object":"o"}
{"Subject":"b","Predicate":"p","Object":"o"}
{"Object":"a","Subject":"c","Predicate":"p"}
`
	ts, err := DecodeSnapshot(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	same := func(x, y string) bool { return unsafe.StringData(x) == unsafe.StringData(y) }
	if !same(ts[0].Predicate, ts[1].Predicate) || !same(ts[1].Predicate, ts[2].Predicate) {
		t.Error("the predicate repeated on every line decoded to more than one string")
	}
	if !same(ts[0].Object, ts[1].Object) || !same(ts[0].Subject, ts[2].Object) {
		t.Error("a repeated name decoded to more than one string")
	}
}

// TestDecodeSnapshotLongLines decodes lines longer than the decoder's read
// buffer, canonical and escaped, between ordinary ones.
func TestDecodeSnapshotLongLines(t *testing.T) {
	long := strings.Repeat("x", 2*snapshotReadBuffer+3)
	in := `{"Subject":"a","Predicate":"p","Object":"o"}
{"Subject":"` + long + `","Predicate":"p","Object":"o"}
{"Subject":"a","Predicate":"p","Object":"` + long + `\u0041"}
{"Subject":"b","Predicate":"p","Object":"o"}`
	ts, err := DecodeSnapshot(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Triple{{"a", "p", "o"}, {long, "p", "o"}, {"a", "p", long + "A"}, {"b", "p", "o"}}
	if !reflect.DeepEqual(ts, want) {
		t.Fatalf("DecodeSnapshot decoded %d triples, not the %d long-line ones expected", len(ts), len(want))
	}
}
