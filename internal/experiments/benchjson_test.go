package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestBenchJSONRoundTrip(t *testing.T) {
	obs.Enable()
	cfg := Config{Seed: 1, Threads: 2, Cols: 8, Reps: 2, Warmup: 1, Datasets: []string{"cora"}}
	r, err := BenchJSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != BenchSchema || len(r.Datasets) != 1 {
		t.Fatalf("report shape: schema=%q datasets=%d", r.Schema, len(r.Datasets))
	}
	d := r.Datasets[0]
	if d.Name != "cora" || d.Nodes <= 0 || d.Edges <= 0 {
		t.Fatalf("dataset row incomplete: %+v", d)
	}
	if d.CBMMul.MeanSeconds <= 0 || d.CSRSpMM.MeanSeconds <= 0 {
		t.Fatalf("non-positive timings: %+v", d)
	}
	if d.CBMMul.Reps != 2 {
		t.Fatalf("reps = %d, want 2", d.CBMMul.Reps)
	}
	if r.NProc < 1 || r.GOMAXPROCS < 1 || r.Threads > r.NProc {
		t.Fatalf("machine record: threads=%d nproc=%d gomaxprocs=%d", r.Threads, r.NProc, r.GOMAXPROCS)
	}
	// obs is enabled, so the split must attribute real time to both
	// two-stage stages, cora's ratio-1.00 tree included, and the
	// fraction must be a sane ratio.
	if d.Stages.SpMMSeconds <= 0 || d.Stages.UpdateSeconds <= 0 {
		t.Fatalf("stage split empty with obs enabled: %+v", d.Stages)
	}
	if d.Stages.SpMMFraction <= 0 || d.Stages.SpMMFraction >= 1 {
		t.Fatalf("spmm fraction %v out of (0,1)", d.Stages.SpMMFraction)
	}
	if len(d.Inference) != len(inferenceConcurrency) {
		t.Fatalf("inference blocks = %d, want %d", len(d.Inference), len(inferenceConcurrency))
	}
	for i, inf := range d.Inference {
		if inf.Concurrency != inferenceConcurrency[i] {
			t.Fatalf("inference[%d].Concurrency = %d, want %d", i, inf.Concurrency, inferenceConcurrency[i])
		}
		wantReq := inferenceRounds(cfg.Reps) * inf.Concurrency
		if inf.CSR.Requests != wantReq || inf.CBM.Requests != wantReq {
			t.Fatalf("inference[%d] requests = %d/%d, want %d", i, inf.CSR.Requests, inf.CBM.Requests, wantReq)
		}
		if inf.CSR.MeanSeconds <= 0 || inf.CBM.MeanSeconds <= 0 ||
			inf.CSR.P99Seconds <= 0 || inf.CBM.P99Seconds <= 0 {
			t.Fatalf("inference[%d] has non-positive latencies: %+v", i, inf)
		}
		if inf.CSR.P99Seconds < inf.CSR.MeanSeconds-inf.CSR.StdSeconds ||
			inf.CBM.P99Seconds < inf.CBM.MeanSeconds-inf.CBM.StdSeconds {
			t.Fatalf("inference[%d] p99 below mean-σ: %+v", i, inf)
		}
		if inf.Speedup <= 0 {
			t.Fatalf("inference[%d] speedup %v not positive", i, inf.Speedup)
		}
		if inf.CBMBatched.Requests != wantReq {
			t.Fatalf("inference[%d] batched requests = %d, want %d", i, inf.CBMBatched.Requests, wantReq)
		}
		if inf.CBMBatched.MeanSeconds <= 0 || inf.CBMBatched.P99Seconds <= 0 || inf.BatchedSpeedup <= 0 {
			t.Fatalf("inference[%d] has a non-positive batched block: %+v", i, inf)
		}
		// Every request contributes its columns to some flush, so the
		// mean flush width lies between one request's width and a full
		// concurrency group's.
		if inf.MeanBatchCols < float64(cfg.Cols) || inf.MeanBatchCols > float64(inf.Concurrency*cfg.Cols) {
			t.Fatalf("inference[%d] mean batch cols %v outside [%d, %d]",
				i, inf.MeanBatchCols, cfg.Cols, inf.Concurrency*cfg.Cols)
		}
	}

	var buf bytes.Buffer
	if err := WriteBenchReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBenchReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// reflect.DeepEqual: BenchDataset carries the inference slice, so
	// it is no longer a comparable struct.
	if !reflect.DeepEqual(back.Datasets[0], d) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", back.Datasets[0], d)
	}

	var tbl bytes.Buffer
	WriteBench(&tbl, r)
	if !strings.Contains(tbl.String(), "cora") {
		t.Fatalf("table rendering missing dataset:\n%s", tbl.String())
	}
}

func TestReadBenchReportRejectsBadDocuments(t *testing.T) {
	// Each piece below is valid on its own, so each rejection case trips
	// exactly the validator it names.
	const (
		machine = `"nproc":2,"gomaxprocs":2,"threads":2`
		timings = `"csr_spmm":{"mean_s":1},"cbm_mul":{"mean_s":1}`
		// The v9 plan fields v10 dropped, valid under v9.
		plans   = `,"cbm_two_stage":{"mean_s":1},"cbm_csr_plan":{"mean_s":1},"chosen_plan":"branch"`
		serving = `,"inference":[{"concurrency":1,` +
			`"csr":{"requests":1,"mean_s":1,"p99_s":1},"cbm":{"requests":1,"mean_s":1,"p99_s":1},"speedup":1,` +
			`"cbm_batched":{"requests":1,"mean_s":1,"p99_s":1},"batched_speedup":1,"mean_batch_cols":1}]`
		// The v8 blocks v9 dropped, each valid under v8.
		reorder = `,"reordered":false,"reorder":{"strategy":"minhash","window":64,"buckets":1,"build_s":0,` +
			`"ratio_exact":1,"ratio_window_raw":1,"ratio_window_reordered":1,"spmm_speedup":1}`
		shard = `,"shard":[{"shards":2,"unsharded_mul":{"mean_s":1},"sharded_mul":{"mean_s":1},"speedup":1,"halo_nnz":1}]`
	)
	docSchema := func(schema, header, entry string) string {
		return `{"schema":"` + schema + `",` + header + `,"datasets":[{"name":"x","nodes":1,` + entry + `}]}`
	}
	doc := func(header, entry string) string { return docSchema(BenchSchema, header, entry) }
	for name, d := range map[string]string{
		"wrong schema": `{"schema":"nope/v9","datasets":[{"name":"x","nodes":1}]}`,
		"stale v1":     `{"schema":"cbm-bench/v1","datasets":[{"name":"x","nodes":1}]}`,
		"stale v7":     `{"schema":"cbm-bench/v7","datasets":[{"name":"x","nodes":1}]}`,
		"stale v8":     docSchema("cbm-bench/v8", machine, timings+reorder+shard+serving),
		"stale v9":     docSchema("cbm-bench/v9", machine, timings+plans+serving),
		"no datasets":  `{"schema":"` + BenchSchema + `",` + machine + `,"datasets":[]}`,
		"not json":     `{`,
		"unknown keys": `{"schema":"` + BenchSchema + `",` + machine + `,"bogus":1,"datasets":[]}`,

		"no machine record":    doc(`"threads":2`, timings+serving),
		"threads above nproc":  doc(`"nproc":2,"gomaxprocs":2,"threads":4`, timings+serving),
		"dropped fused timing": doc(machine, timings+`,"cbm_fused":{"mean_s":1}`+serving),
		"dropped selector":     doc(machine, timings+`,"selector_speedup":1`+serving),
		"dropped reorder":      doc(machine, timings+reorder+serving),
		"dropped shard":        doc(machine, timings+shard+serving),
		"dropped plan fields":  doc(machine, timings+plans+serving),
		"no cbm timing":        doc(machine, `"csr_spmm":{"mean_s":1}`+serving),
		"no inference":         doc(machine, timings),
		"no batched serving": doc(machine, timings+`,"inference":[{"concurrency":1,`+
			`"csr":{"requests":1,"mean_s":1,"p99_s":1},"cbm":{"requests":1,"mean_s":1,"p99_s":1},"speedup":1}]`),
	} {
		if _, err := ReadBenchReport(strings.NewReader(d)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	// The complete document the cases above break is itself accepted.
	if _, err := ReadBenchReport(strings.NewReader(doc(machine, timings+serving))); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
}
