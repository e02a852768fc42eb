package record

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRecordDecode feeds arbitrary bytes to Decode: it must return a log or
// an error and never panic, and a log it accepts must survive an
// Encode→Decode round trip unchanged. Its seeds are in
// testdata/fuzz/FuzzRecordDecode.
func FuzzRecordDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := l.Encode(&out); err != nil {
			t.Fatalf("Encode of a decoded log: %v", err)
		}
		back, err := Decode(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("Decode of an encoded log: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(l, back) {
			t.Fatalf("round trip changed the log:\n%+v\n%+v", l, back)
		}
	})
}
