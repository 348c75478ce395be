package elide

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chex86/internal/asm"
	"chex86/internal/lockstep/progen"
	"chex86/internal/ptrflow"
	"chex86/internal/workload"
)

var update = flag.Bool("update", false, "re-pin testdata/analysis.golden from the current code")

const goldenFile = "testdata/analysis.golden"

// goldenGenomeShapes are the generator settings of the pinned progen
// genomes, goldenGenomes seeds each, with mutation classes cycling
// through none and progen.Mutations. Default genomes almost always contain an
// indirect branch, so the bundle carries invariants but no proofs; the
// short shapes are the ones that reach proofs and guards.
var goldenGenomeShapes = []progen.Options{{}, {Steps: 12}, {Steps: 12, Funcs: -1}}

const goldenGenomes = 16

// TestAnalysisGolden pins the byte-level output of the analysis slice —
// the elide Report JSON, its Digest and Guards.Digest, the ProofBundle
// JSON and Analysis.Format — as SHA-256 digests over fixed progen
// genomes and the 14 catalog programs at scale 0.1, for k = 2 and the
// context-insensitive k = -1. Any change to the analyzer, the checker or
// their serialization that moves a byte fails here; re-pin with
// `go test ./internal/elide -run TestAnalysisGolden -update` only for a
// change that is meant to move the output, and say which.
func TestAnalysisGolden(t *testing.T) {
	type prog struct {
		name string
		p    *asm.Program
	}
	var progs []prog
	muts := append([]progen.Mutation{progen.MutNone}, progen.Mutations()...)
	for si, shape := range goldenGenomeShapes {
		for i := 0; i < goldenGenomes; i++ {
			seed := uint64(i + 1)
			shape.Mutation = muts[i%len(muts)]
			g := progen.Generate(seed, shape)
			p, err := g.Build()
			if err != nil {
				t.Fatalf("genome shape %d seed %d: %v", si, seed, err)
			}
			progs = append(progs, prog{fmt.Sprintf("genome-s%d-%d-%q", si, seed, g.Mutation), p})
		}
	}
	for _, prof := range workload.Catalog() {
		p, err := prof.Build(0.1)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		progs = append(progs, prog{prof.Name, p})
	}

	sum := func(b []byte) string {
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:])
	}
	var got bytes.Buffer
	for _, pr := range progs {
		harts := 1
		if prof := workload.ByName(pr.name); prof != nil {
			harts = prof.Harts()
		}
		for _, k := range []int{2, -1} {
			an, err := ptrflow.Analyze(pr.p, ptrflow.Options{Harts: harts, ContextK: k})
			if err != nil {
				t.Fatalf("%s k=%d: analyze: %v", pr.name, k, err)
			}
			format := an.Format()
			bundle, err := json.Marshal(an.ProofBundle())
			if err != nil {
				t.Fatal(err)
			}
			rep := FromAnalysis(pr.p, an, Options{Harts: harts, ContextK: k})
			report, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s k=%d report=%s digest=%s guards=%s bundle=%s format=%s\n",
				pr.name, k, sum(report), rep.Digest, rep.Guards.Digest, sum(bundle), sum([]byte(format)))
		}
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to pin)", err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
	bad := 0
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			bad++
			if bad <= 5 {
				t.Errorf("line %d moved:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d golden lines moved", bad, len(wantLines)-1)
	}
}
