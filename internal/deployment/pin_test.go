package deployment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"beesim/internal/ledger"
	"beesim/internal/timeseries"
)

// figure2Digests hashes everything a 7-day Figure 2 run produces: the
// ledger's JSONL export, the seven series as one CSV, and the Trace
// counters (floats by their bits).
func figure2Digests(t *testing.T, seed uint64) (ledgerSum, csvSum, countersSum string) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Ledger = ledger.New()
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	var lb, cb bytes.Buffer
	if err := cfg.Ledger.WriteJSONL(&lb); err != nil {
		t.Fatal(err)
	}
	if err := timeseries.WriteCSV(&cb, tr.RecorderPower, tr.InsideTemp, tr.InsideHumidity,
		tr.OutsideTemp, tr.OutsideHumidity, tr.BatterySoC, tr.PanelPower); err != nil {
		t.Fatal(err)
	}
	bits := func(j float64) uint64 { return math.Float64bits(j) }
	counters := fmt.Sprintf("%d %d %d %x %x %x %d %d %d %d %d %x %d %d",
		tr.Wakeups, tr.MissedWakeups, tr.Outages,
		bits(float64(tr.RecorderEnergy)), bits(float64(tr.MonitorEnergy)), bits(float64(tr.HarvestedEnergy)),
		tr.FailedUploads, tr.FlushedUploads, tr.DroppedUploads, tr.BufferedUploads,
		tr.UploadRetries, bits(float64(tr.RetryEnergy)), tr.SensorDropouts, tr.Brownouts)
	return sum(lb.Bytes()), sum(cb.Bytes()), sum([]byte(counters))
}

// TestFigure2BitsPinned pins the bytes of the week-long Figure 2 run
// for seeds 1-4. The determinism suites only compare runs with each
// other, so a change that moves every run the same way passes them;
// this test fails on any changed ledger entry, series point or counter.
func TestFigure2BitsPinned(t *testing.T) {
	want := []struct{ ledger, csv, counters string }{
		{"f84ca0ac7a1a7e862e314872cf4d511c46cfbfe7f5b478a0be60dfc55a777585",
			"fda424b5fb11f5d6752c58fb573c61e77330935dab9397f12d9c0e709ee9215b",
			"698874841d93646a17f8ea19c4b4b6a3383f46f1eeb0afa81e1b474160521ef9"},
		{"d2c3012bd3496f3b80d0f08a62d36a45b21f517bc48ce30a2f1d5600c144d611",
			"c38d4b0f7f96ecf1172aa1f9902c753fd39432a9285cefd9f91477c17fd1ef66",
			"20e7d1288c1c2f611a5e304f3514447657946fe811eaa487957a8e173946e7e0"},
		{"8121b74e1eba2bc16f98509d1bc8197b347a5a354bd12ec1599fc251cafa2881",
			"03836b010bdb17f7deec847c6d4f5fe13104850a4ab2bb52145efe33147e25ee",
			"60b8e9cf2105e5294645eec657d72bcdb1f139545486d2da3913b4a6dfc7779c"},
		{"de5d794d57c76a478f75f99e976690865a1bb78efc6e128c8610482c0b3d4d82",
			"84bad6664e61e64e8413b95b86671f93644ef9813b6f504ab6db98eec8a1bea8",
			"35700c06995cf8303dab7d03051be74a5f4ea18811a2d4cf4a50a72660d57e01"},
	}
	for i, w := range want {
		seed := uint64(i + 1)
		l, c, n := figure2Digests(t, seed)
		if l != w.ledger {
			t.Errorf("seed %d: ledger JSONL sha256 %s, pinned %s", seed, l, w.ledger)
		}
		if c != w.csv {
			t.Errorf("seed %d: series CSV sha256 %s, pinned %s", seed, c, w.csv)
		}
		if n != w.counters {
			t.Errorf("seed %d: Trace counters sha256 %s, pinned %s", seed, n, w.counters)
		}
	}
}
