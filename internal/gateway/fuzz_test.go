package gateway

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stumps"
)

// FuzzUnmarshal feeds arbitrary bytes through the wire-format parser:
// no panics, anything accepted must survive a Marshal round trip,
// appending garbage to an accepted blob must be rejected with the typed
// trailing-garbage error, and truncating one must be rejected as
// ErrTruncated — including cuts inside the ECU name, where a
// short-read-tolerant parser would silently misparse.
func FuzzUnmarshal(f *testing.F) {
	good, err := Marshal(Record{ECU: "ecu01", Session: 3, Fail: sampleFail(2)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// Short-name seeds: declared name length exceeds the remaining data.
	f.Add([]byte{1, 0, 0, 0, 0xFF, 0xFF, 'a', 'b', 'c'})
	f.Add(good[:4+2+3]) // cut inside "ecu01"
	shortName := append([]byte(nil), good[:4+2+3]...)
	f.Add(append(shortName, 8, 0, 0, 0)) // short name, ≥4 plausible trailing bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Unmarshal(data)
		if err != nil {
			return
		}
		b, err := Marshal(r)
		if err != nil {
			t.Fatalf("accepted record failed to marshal: %v", err)
		}
		back, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.ECU != r.ECU || back.Session != r.Session || len(back.Fail.Entries) != len(r.Fail.Entries) {
			t.Fatal("round trip changed the record")
		}
		if _, err := Unmarshal(append(b, 0xEE)); !errors.Is(err, ErrTrailingGarbage) {
			t.Fatalf("garbage-appended record accepted: %v", err)
		}
		// Any strict prefix is a truncation: the format has no optional
		// tail. Cut once mid-name (when there is a name) and once before
		// the final byte.
		if _, err := Unmarshal(b[:len(b)-1]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("one-byte truncation accepted: %v", err)
		}
		if len(r.ECU) > 0 {
			cut := 4 + 2 + len(r.ECU)/2
			if _, err := Unmarshal(b[:cut]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("mid-name truncation accepted: %v", err)
			}
		}
	})
}

// refUnmarshal is the original reflection-based decoder, one
// binary.Read per field: the differential oracle for Unmarshal.
func refUnmarshal(data []byte) (Record, error) {
	buf := bytes.NewReader(data)
	var r Record
	var ecuLen, windows, nEntries uint16
	if err := binary.Read(buf, binary.LittleEndian, &r.Session); err != nil {
		return Record{}, fmt.Errorf("%w: session: %v", ErrTruncated, err)
	}
	if err := binary.Read(buf, binary.LittleEndian, &ecuLen); err != nil {
		return Record{}, fmt.Errorf("%w: name length: %v", ErrTruncated, err)
	}
	name := make([]byte, ecuLen)
	if _, err := io.ReadFull(buf, name); err != nil {
		return Record{}, fmt.Errorf("%w: ECU name: %v", ErrTruncated, err)
	}
	r.ECU = string(name)
	if err := binary.Read(buf, binary.LittleEndian, &windows); err != nil {
		return Record{}, fmt.Errorf("%w: windows: %v", ErrTruncated, err)
	}
	if err := binary.Read(buf, binary.LittleEndian, &nEntries); err != nil {
		return Record{}, fmt.Errorf("%w: entry count: %v", ErrTruncated, err)
	}
	r.Fail.Windows = int(windows)
	for i := 0; i < int(nEntries); i++ {
		var w uint16
		var e stumps.FailEntry
		if err := binary.Read(buf, binary.LittleEndian, &w); err != nil {
			return Record{}, fmt.Errorf("%w: entry %d: %v", ErrTruncated, i, err)
		}
		if err := binary.Read(buf, binary.LittleEndian, &e.Got); err != nil {
			return Record{}, fmt.Errorf("%w: entry %d: %v", ErrTruncated, i, err)
		}
		if err := binary.Read(buf, binary.LittleEndian, &e.Want); err != nil {
			return Record{}, fmt.Errorf("%w: entry %d: %v", ErrTruncated, i, err)
		}
		e.Window = int(w)
		r.Fail.Entries = append(r.Fail.Entries, e)
	}
	if buf.Len() != 0 {
		return Record{}, fmt.Errorf("%w: %d trailing bytes", ErrTrailingGarbage, buf.Len())
	}
	return r, nil
}

// errClass names the typed wire-format error err carries.
func errClass(err error) string {
	switch {
	case err == nil:
		return "accepted"
	case errors.Is(err, ErrTruncated):
		return "ErrTruncated"
	case errors.Is(err, ErrTrailingGarbage):
		return "ErrTrailingGarbage"
	}
	return "untyped: " + err.Error()
}

// FuzzUnmarshalMatchesReference decodes every input with Unmarshal and
// with refUnmarshal: both must accept or reject it alike, with the same
// error class, and accepted records must be deeply equal — a nil versus
// an empty Entries slice counts as a difference.
func FuzzUnmarshalMatchesReference(f *testing.F) {
	// The 650-byte golden record is left out: the fuzzer minimizes each
	// new-coverage mutant byte by byte, which for inputs that long takes
	// most of a 30 s run.
	for _, r := range goldenRecords()[:2] {
		b, err := Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(append(b, 0))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0xFF, 0xFF, 'a', 'b', 'c'})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 8, 0, 0xFF, 0xFF}) // 65,535 entries claimed, none present
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unmarshal(data)
		want, refErr := refUnmarshal(data)
		if g, w := errClass(err), errClass(refErr); g != w || strings.HasPrefix(g, "untyped") {
			t.Fatalf("Unmarshal(%x): %v, reference: %v", data, err, refErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Unmarshal(%x) = %#v, reference %#v", data, got, want)
		}
	})
}

// FuzzImport checks the length-prefixed container parser: no panics,
// accepted blobs must re-export to an importable blob, and a blob with
// a record repeated must be rejected as a duplicate sequence.
func FuzzImport(f *testing.F) {
	var c Collector
	c.Ingest("a", sampleFail(1))
	blob, err := c.Export()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Import(data)
		if err != nil {
			return
		}
		if len(recs) == 0 {
			return
		}
		// Re-exporting what Import accepted must round-trip.
		var c2 Collector
		c2.records = recs
		blob2, err := c2.Export()
		if err != nil {
			t.Fatalf("accepted records failed to export: %v", err)
		}
		if _, err := Import(blob2); err != nil {
			t.Fatalf("re-exported blob rejected: %v", err)
		}
		// Doubling the blob repeats every (ECU, session) pair.
		if _, err := Import(append(append([]byte(nil), data...), data...)); !errors.Is(err, ErrDuplicateSequence) {
			t.Fatalf("doubled blob accepted: %v", err)
		}
	})
}
