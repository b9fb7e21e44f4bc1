package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"beesim/internal/ledger"
)

// artifactCSV pins the SHA-256 of every registry CSV except Figure 5's
// (24 s to train; compared by hand). The values were captured from the
// per-figure CLIs this command replaced, so reproduce writes the same
// bytes they did.
var artifactCSV = map[string]string{
	"F2":  "8cffb84200d991943bd354432d6faba26d4bdfb26919519ed6e2ccc6efd7c005",
	"F6":  "0924a3608161c6f21940aad6658d99f9e78b2388b314bc98d5eacedea0779a92",
	"F7":  "0e9a95df1fa3c436b18d9f690f784b4cc3286bd18515bcad0daadd16df67645c",
	"F8A": "f12945c3216c9063947a80fb25f01c35ec13803e06cafeb59d18747cc776fbb3",
	"F8B": "c154030cda87e813f59d722e219a7d1d9b459f67fcee02fbdeacf24f74e8eae8",
	"F8C": "394962e8fc566e6b3528c4d0071e7a1b6fdddae1945d4789b530a64518432329",
	"F8":  "49caaf81af00ea9eea7d9cc9edefe323e4055d0176312bc2fef28f54244326a5",
	"F9":  "4435aa432796f3f846a532824f44ee38d2f8c95f4cbabe6b658e6cca6336b40a",
	"AV":  "551ba328640193b35366ba3691fa27455961cc8067782b35451eafe7cbeadc61",
}

func TestReproduceCSVPinned(t *testing.T) {
	ids := []string{"T1", "T2", "F2", "F3", "S4", "F6", "F7", "F8A", "F8B", "F8C", "F8", "F9", "AV"}
	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		args := append([]string{"reproduce", "-workers", strconv.Itoa(workers), "-csv", dir}, ids...)
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != len(artifactCSV) {
			t.Errorf("workers %d: %d CSV files, want %d", workers, len(files), len(artifactCSV))
		}
		for id, want := range artifactCSV {
			b, err := os.ReadFile(filepath.Join(dir, id+".csv"))
			if err != nil {
				t.Fatalf("workers %d: %v", workers, err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("workers %d: %s.csv sha256 = %s, want %s", workers, id, got, want)
			}
		}
		for _, id := range ids {
			if !strings.Contains(out.String(), "["+id+"] ") {
				t.Errorf("workers %d: no %s header in the output", workers, id)
			}
		}
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"fig6"},
		{"reproduce", "F4"},
		{"reproduce", "-loss", "a"},
		{"trace", "-cap", "3"},
		{"trace", "-site", "mars"},
		{"trace", "-replicas", "2", "-csv", "x.csv"},
		{"sweep", "-svg", "x.svg"},
		{"campaign", "-cpuprofile", "x.pprof"},
		{"recommend", "-workers", "2"},
		{"train", "-sizes", "20"},
		{"synth", "extra"},
	} {
		err := run(args, &bytes.Buffer{})
		if code := exitCode(err); code != 2 {
			t.Errorf("beesim %s: exit %d (%v), want 2", strings.Join(args, " "), code, err)
		}
	}
	if code := exitCode(run([]string{"scenario"}, &bytes.Buffer{})); code != 1 {
		t.Errorf("scenario without -ledger: exit %d, want 1", code)
	}
}

func TestScenarioLedgerAudits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.jsonl")
	var out bytes.Buffer
	if err := run([]string{"scenario", "-workers", "4", "-ledger", path}, &out); err != nil {
		t.Fatalf("scenario: %v\n%s", err, out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lg, err := ledger.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Len() == 0 {
		t.Fatal("empty ledger")
	}
	if rep := ledger.Audit(lg, ledger.DefaultTolerance()); !rep.OK() {
		t.Fatalf("audit: %s", rep.String())
	}
}
