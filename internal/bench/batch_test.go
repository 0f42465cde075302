package bench

import "testing"

// The batch micro-benchmark backs the BENCH_PR*.json `portfolio.batch`
// section; this test pins its correctness properties (agreement,
// corpus shape, batch advantage) at a small scale so `go test` stays
// fast — the artifact run uses a larger corpus.

func TestCompareBatchAgreesAndShares(t *testing.T) {
	cmp, err := CompareBatch(60, 6)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Divergences != 0 {
		t.Fatalf("batched route diverged from serial on %d/%d queries", cmp.Divergences, cmp.Queries)
	}
	if cmp.Queries < 10 {
		t.Fatalf("corpus too small to be call-heavy: %d queries", cmp.Queries)
	}
	// The timing gate itself lives in benchdiff over the artifact run;
	// here just require the batch not to be pathologically slower.
	if cmp.Ratio != 0 && cmp.Ratio < 0.5 {
		t.Fatalf("batched route %.2fx vs serial — prefix sharing is not engaging", cmp.Ratio)
	}
}
