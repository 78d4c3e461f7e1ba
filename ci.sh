#!/usr/bin/env bash
# CI gate: static checks, the full test suite, the race detector over
# the concurrency-heavy packages (including the oracle stress harness),
# and a differential-verification smoke sweep. Every PR is expected to
# pass `./ci.sh` locally before landing.
set -euo pipefail
cd "$(dirname "$0")"

# Package patterns shared by every static check, so vet and cbmlint can
# never drift apart in coverage.
PKGS="./..."

echo "==> gofmt"
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "==> go vet $PKGS (asmdecl checks every *_amd64.s against its Go declarations)"
go vet "$PKGS"

echo "==> portable kernel paths (GOARCH=arm64 build + vet, so the !amd64 kernel files cannot rot)"
GOARCH=arm64 go build "$PKGS"
GOARCH=arm64 go vet ./internal/dense ./internal/blas ./internal/kernels

echo "==> cbmlint $PKGS (all analyzers incl. arenalease/ctxprop/determinism, JSON report)"
# -json keeps the failure report stable and greppable; the report is
# printed on failure so CI logs carry file/line/analyzer/message.
if ! go run ./cmd/cbmlint -json "$PKGS" > cbmlint.report.json; then
    echo "cbmlint: diagnostics found:" >&2
    cat cbmlint.report.json >&2
    rm -f cbmlint.report.json
    exit 1
fi
rm -f cbmlint.report.json

echo "==> lint self-test (CFG + dataflow analyzers + golden fixtures)"
go test -count=1 ./internal/lint/...

echo "==> go build $PKGS"
go build "$PKGS"

echo "==> go test $PKGS"
go test "$PKGS"

echo "==> perfbench module (its own go.mod, so ./... skips it; it compiles against cbm's public API)"
(cd perfbench && go vet . && go test -count=1 .)

echo "==> go test -race (concurrency-heavy packages)"
go test -race ./internal/cbm/... ./internal/parallel/... ./internal/kernels/... ./internal/oracle/... ./internal/obs/... ./internal/exec/... ./internal/gnn/... ./internal/clock/...

echo "==> compression thread invariance (-race, Encode byte-identical at Threads 1/2/4; parallel candidate pass + per-component arborescence)"
go test -race -count=1 -run 'TestCompressThreadInvariantEncode' ./internal/cbm/

echo "==> worker-pool stress (-race, reuse + nested submits + determinism)"
go test -race -count=1 -run 'TestPool' ./internal/parallel/

echo "==> engine race stress (-race, concurrent serving vs sequential reference)"
go test -race -count=1 -run 'TestEngine' ./internal/gnn/

echo "==> micro-batching smoke (-race, deterministic clock + batched bitwise equivalence)"
go test -race -count=1 -run 'TestBatcher|TestGatherScatter|TestEngineBatched' ./internal/gnn/

echo "==> zero-alloc smoke (GEMM, CSR SpMM and two-stage kernels + arena + forward path + engine steady state; SIMD kernels bitwise vs portable)"
go test -count=1 -run 'ZeroAlloc|TestArenaSteadyState|Bitwise' \
    ./internal/dense/ ./internal/blas/ ./internal/kernels/ ./internal/cbm/ ./internal/exec/ ./internal/gnn/

echo "==> SIMD bitwise under GOAMD64=v3 (a compiler that fuses the portable references into FMA fails here)"
GOAMD64=v3 go test -count=1 -run 'Bitwise' ./internal/dense/ ./internal/blas/ ./internal/kernels/ ./internal/cbm/

echo "==> cmd/verify smoke sweep"
go run ./cmd/verify -n 64 -sweep quick

echo "==> MulTo thread invariance + concurrency stress smoke"
go run ./cmd/verify -n 96 -gens hub,sbm -alphas 0,4 -threads 1,4,8 -stress 1

echo "==> FuzzDecode smoke (container reader: reject or multiply deterministically, never panic)"
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/cbm/

echo "==> cmd/gcnserve smoke (concurrent engine under load)"
go run ./cmd/gcnserve -dataset cora -cols 16 -classes 4 -concurrency 4 -requests 5 >/dev/null

echo "==> cmd/gcnserve batched smoke (micro-batched vs unbatched sweep)"
go run ./cmd/gcnserve -dataset cora -cols 16 -classes 4 -requests 3 \
    -batch -concurrencies 1,4 >/dev/null

echo "==> cbmbench metrics smoke (BENCH_cbm.json)"
go run ./cmd/cbmbench -exp bench -datasets cora -cols 16 -reps 3 -warmup 1 \
    -bench-out BENCH_cbm.smoke.json -metrics >/dev/null
go run ./cmd/cbmbench -check-bench BENCH_cbm.smoke.json
rm -f BENCH_cbm.smoke.json

echo "==> non-test Go lines outside perfbench and cmd flag count (informational, tracked per change in ROADMAP.md)"
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    echo "non-test Go lines: $(cat $(git ls-files '*.go' | grep -v _test.go | grep -v '^perfbench/') | wc -l)"
fi
echo "cmd flags: $(grep -rhoE 'flag\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Var|Func)\(' cmd | wc -l)"

echo "ci: OK"
