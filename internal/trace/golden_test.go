package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"vrcluster/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/standard_digests.json")

const digestsPath = "testdata/standard_digests.json"

// digestSeeds are the seeds whose standard traces are pinned.
var digestSeeds = []int64{42, 7}

// standardDigests returns the SHA-256 of the Encode output of every
// standard trace (both groups, levels 1-5) at every digest seed, keyed by
// "seed/name".
func standardDigests(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, seed := range digestSeeds {
		for _, g := range []workload.Group{workload.Group1, workload.Group2} {
			for n := 1; n <= len(Levels); n++ {
				tr, err := Standard(g, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := tr.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				got[fmt.Sprintf("%d/%s", seed, tr.Name)] = hex.EncodeToString(sum[:])
			}
		}
	}
	return got
}

// TestStandardTraceDigests pins the content of the ten standard traces at
// two seeds. A change that only makes synthesis faster must leave every
// digest identical; -update rewrites the file.
func TestStandardTraceDigests(t *testing.T) {
	got := standardDigests(t)
	if *update {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", digestsPath, err)
	}
	// Rerun with -update only if synthesis was meant to change.
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: digest %.12s, golden %.12s", k, got[k], w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: not in %s", k, digestsPath)
		}
	}
}
