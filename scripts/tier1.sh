#!/usr/bin/env bash
# Tier-1 verification: build, full test suite, lint, the container
# conformance suites, the deterministic overhead gates, and the codec
# performance baseline (time report only — the numbers are recorded in
# BENCH_codec.json but never gate the run; thread-scaling ratios depend on
# the host's core count).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --all-targets -- -D warnings
cargo run --release -q -p ss-lint
cargo run --release -q -p ss-lint -- --self-test

# Deprecated-API wall: the workspace must build with deprecation warnings
# hardened into errors. The `#[deprecated]` shims themselves (old
# `*_with_threads` names, `MeasureReport::into_tuple`, and the 0.3
# scheme-registry deprecations: `pack_with_codec`,
# `ContainerCodec::{to_byte,from_byte}`, `ModelWriter::with_codec`) may
# only be *defined* in their home crates — any call site that still uses
# one fails here. A dedicated target dir keeps the flag change from
# thrashing the main build cache.
echo
echo "== deprecated-API wall (no callers of deprecated shims) =="
CARGO_TARGET_DIR=target/deprecated-check RUSTFLAGS="-D deprecated" \
    cargo check -q --workspace --all-targets

# Container conformance: golden vectors (v1 + v2 pinned streams plus the
# pinned plug-in scheme streams), the indexed-vs-sequential differential
# property suite, the corruption fuzzers (including the exhaustive
# unregistered-wire-id sweep of the file container), the session-reuse
# property suite (every registered scheme interleaved through one
# session), the word-parallel-kernel-vs-scalar differential suite (the
# fused group decoder against the per-bit decode loop at every group
# size and on hostile streams), and the ss-bitio suite with the
# slicing-by-16 CRC-32 checked against its bitwise definition (the
# checksum behind every chunk index, shard and SSRP frame) and the
# window-load field reads against the bitwise field definition at every
# width and bit phase. All run above as part of the workspace tests; re-run here
# by name so a conformance failure is unmissable in CI logs.
echo
echo "== container conformance (golden + differential + fuzz + kernels + CRC-32) =="
cargo test -q -p ss-core --test golden_vectors --test codec_properties --test codec_fuzz \
    --test kernel_differential --test session_reuse
cargo test -q -p shapeshifter --test container_fuzz
cargo test -q -p ss-bitio

# Scheme-registry gates: built-in registrations byte-identical to the
# pre-registry encoders, DPRed/AdaBits round trip through the worker
# pool, and the AdaBits truncation-prefix property.
echo
echo "== scheme registry (byte-identity + plug-in round-trip gates) =="
cargo run --release -q -p ss-bench --bin schemes_quant -- --smoke

# Deterministic gates: trace-recorder measure overhead and chunk-index
# metadata overhead (both host-independent bounds).
echo
echo "== overhead gates =="
cargo run --release -q -p ss-bench --bin perf_baseline -- --overhead-gate

# Batch-engine smoke: full encode/measure/decode pipeline on a small
# batch; fails on a bit-identity or worker-count-determinism violation.
echo
echo "== pipeline smoke (bit-identity + determinism gates) =="
cargo run --release -q -p ss-bench --bin pipeline_throughput -- --smoke

# Shard-store conformance: the corruption suite (every single-bit flip
# detected, truncation fails cleanly), the warm-lookup allocation gate
# (bytes allocated by `get_into` do not grow with record size), plus the
# roundtrip smoke with its bit-identity, partial-read and verify gates.
echo
echo "== shard store (corruption suite + lookup allocation + roundtrip gates) =="
cargo test -q -p ss-store --test shard_corruption --test zoo_roundtrip --test get_into_alloc
cargo run --release -q -p ss-bench --bin store_roundtrip -- --smoke

# Serve conformance: the protocol unit tests (pinned SSRP wire bytes,
# the frame writer against `Frame::encode`, typed response-read errors,
# wire-body round trips), the SSRP protocol fuzz suite (every single-bit
# flip and truncation is a typed error, a flipped op byte never
# dispatches as another op), the fault-injection suite (client
# disconnects, typed overload, drain semantics, multi-client soak across
# worker counts), the bounded-queue close/drain stress test, and the
# traffic-replay smoke with its completion / FIFO / overload / drain
# gates.
echo
echo "== serve (protocol units + fuzz + fault injection + queue shutdown + replay smoke) =="
cargo test -q -p ss-serve --lib
cargo test -q -p ss-serve --test protocol_fuzz --test service_faults
cargo test -q -p ss-pipeline --test queue_shutdown
cargo run --release -q -p ss-bench --bin serve_replay -- --smoke

echo
echo "== perf baseline (informational) =="
cargo run --release -q -p ss-bench --bin perf_baseline
