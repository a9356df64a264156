package delirium

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode drives the graph text that the daemon's submissions and
// orchrun's file argument carry: Decode must never panic, and every
// graph it accepts that also validates must encode to text that decodes
// again and re-encodes to the same bytes. The seeds are the graphs
// under examples/. Run the seeds alone with
// `go test ./internal/delirium -run FuzzDecode`; explore with
// `go test ./internal/delirium -run XXX -fuzz FuzzDecode`.
func FuzzDecode(f *testing.F) {
	var seeds []string
	for _, pat := range []string{"../../examples/*.graph", "../../examples/*/*.graph"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, m...)
	}
	if len(seeds) == 0 {
		f.Fatal("no example graphs to seed from")
	}
	for _, path := range seeds {
		text, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	f.Fuzz(func(t *testing.T, text string) {
		g, err := Decode(text)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			return
		}
		enc := g.Encode()
		g2, err := Decode(enc)
		if err != nil {
			t.Fatalf("encoding of an accepted graph does not decode: %v\n%s", err, enc)
		}
		if enc2 := g2.Encode(); enc2 != enc {
			t.Fatalf("round trip changed the encoding:\n%s\nthen:\n%s", enc, enc2)
		}
	})
}
