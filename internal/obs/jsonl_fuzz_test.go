package obs

import (
	"bytes"
	"reflect"
	"regexp"
	"testing"
)

// lineErr matches the line number every ReadJSONL error must name.
var lineErr = regexp.MustCompile(`line [0-9]+`)

// FuzzReadJSONL feeds arbitrary bytes to ReadJSONL: it must return events
// or an error naming the offending line, never panic, and the events it
// accepts must survive a WriteJSONL→ReadJSONL round trip unchanged. Its
// seeds are in testdata/fuzz/FuzzReadJSONL.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			if !lineErr.MatchString(err.Error()) {
				t.Fatalf("error names no line: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := WriteJSONL(&out, events); err != nil {
			t.Fatalf("WriteJSONL of read events: %v", err)
		}
		back, err := ReadJSONL(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("ReadJSONL of written events: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(events, back) {
			t.Fatalf("round trip changed the events:\n%+v\n%+v", events, back)
		}
	})
}
