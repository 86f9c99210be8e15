package gateway

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stumps"
)

// goldenRecords are the fixed records whose wire bytes
// TestMarshalGoldenBytes pins: no entries, one entry with extreme
// values, and 32 entries behind a 64-byte ECU name.
func goldenRecords() []Record {
	long := Record{
		ECU:     strings.Repeat("vehicle-0042/bcm", 4),
		Session: 0x00010203,
		Fail:    stumps.FailData{Windows: 0xFFFF},
	}
	for i := 0; i < 32; i++ {
		got := uint64(i)<<56 | 0xA5
		long.Fail.Entries = append(long.Fail.Entries, stumps.FailEntry{Window: 2*i + 1, Got: got, Want: ^got})
	}
	return []Record{
		{ECU: "ecu01", Session: 7, Fail: stumps.FailData{Windows: 16}},
		{ECU: "brake-ctrl", Session: 0xDEADBEEF, Fail: stumps.FailData{Windows: 300, Entries: []stumps.FailEntry{
			{Window: 299, Got: 0x0123456789ABCDEF, Want: 0xFEDCBA9876543210},
		}}},
		long,
	}
}

// goldenHex is the wire format of goldenRecords, one field per group:
// u32 session | u16 name length | name | u16 windows | u16 entries,
// then one line per entry: u16 window | u64 got | u64 want. All
// integers little-endian.
var goldenHex = []string{
	`07000000 0500 6563753031 1000 0000`,
	`efbeadde 0a00 6272616b652d6374726c 2c01 0100
		 2b01 efcdab8967452301 1032547698badcfe`,
	`03020100 4000 76656869636c652d303034322f62636d76656869636c652d303034322f62636d76656869636c652d303034322f62636d76656869636c652d303034322f62636d ffff 2000
		 0100 a500000000000000 5affffffffffffff
		 0300 a500000000000001 5afffffffffffffe
		 0500 a500000000000002 5afffffffffffffd
		 0700 a500000000000003 5afffffffffffffc
		 0900 a500000000000004 5afffffffffffffb
		 0b00 a500000000000005 5afffffffffffffa
		 0d00 a500000000000006 5afffffffffffff9
		 0f00 a500000000000007 5afffffffffffff8
		 1100 a500000000000008 5afffffffffffff7
		 1300 a500000000000009 5afffffffffffff6
		 1500 a50000000000000a 5afffffffffffff5
		 1700 a50000000000000b 5afffffffffffff4
		 1900 a50000000000000c 5afffffffffffff3
		 1b00 a50000000000000d 5afffffffffffff2
		 1d00 a50000000000000e 5afffffffffffff1
		 1f00 a50000000000000f 5afffffffffffff0
		 2100 a500000000000010 5affffffffffffef
		 2300 a500000000000011 5affffffffffffee
		 2500 a500000000000012 5affffffffffffed
		 2700 a500000000000013 5affffffffffffec
		 2900 a500000000000014 5affffffffffffeb
		 2b00 a500000000000015 5affffffffffffea
		 2d00 a500000000000016 5affffffffffffe9
		 2f00 a500000000000017 5affffffffffffe8
		 3100 a500000000000018 5affffffffffffe7
		 3300 a500000000000019 5affffffffffffe6
		 3500 a50000000000001a 5affffffffffffe5
		 3700 a50000000000001b 5affffffffffffe4
		 3900 a50000000000001c 5affffffffffffe3
		 3b00 a50000000000001d 5affffffffffffe2
		 3d00 a50000000000001e 5affffffffffffe1
		 3f00 a50000000000001f 5affffffffffffe0`,
}

// TestMarshalGoldenBytes pins the wire format byte for byte. WAL
// entries, snapshots and Export blobs embed these bytes, so a codec
// change that moves any of them breaks every stored record.
func TestMarshalGoldenBytes(t *testing.T) {
	for i, r := range goldenRecords() {
		want, err := hex.DecodeString(strings.Join(strings.Fields(goldenHex[i]), ""))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Marshal(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: Marshal =\n%x\nwant\n%x", i, got, want)
		}
		back, err := Unmarshal(want)
		if err != nil {
			t.Fatalf("record %d: Unmarshal: %v", i, err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("record %d: Unmarshal = %+v, want %+v", i, back, r)
		}
	}
}
