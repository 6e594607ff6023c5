# Convenience entry points. Everything here is plain cargo underneath so
# local runs and CI are identical.

.PHONY: all test perf perf-check perf-verbose perf-micro lockstep lockstep-shard lockstep-snapshot chaos docs examples lint lint-chopim checked-release benchmark

all: test

test:
	cargo build --release && cargo test -q

# Simulation-throughput harness: runs the scenario matrix with the naive
# and event-horizon loops, writes BENCH_chopim.json.
# Window: CHOPIM_BENCH_CYCLES (default 60000). Subset a run with
# `cargo run --release -p chopim-perf -- --filter <regex>`.
perf:
	cargo run --release -p chopim-perf

# Same, plus the CI regression gate against the checked-in baseline.
# The gate requires the baseline's window, so pin it (exactly what CI runs).
perf-check:
	CHOPIM_BENCH_CYCLES=200000 cargo run --release -p chopim-perf -- --check BENCH_baseline.json

# Harness with per-phase simulator-cost counters (sched scans, NDA memo
# hits/misses, ready_at calls) printed per scenario — the first stop when
# a perf regression needs attributing.
perf-verbose:
	cargo run --release -p chopim-perf --features perf-counters -- --verbose

# Micro-benchmarks for the busy-path kernels (ready_at / plan_access /
# scheduler pick), the cross-shard exchange kernels (flat-fifo handoff,
# merge-queue vs heap), the NDA sequencer (controller plus shadow FSM,
# ns per granted command), and the SVRG math kernels (full_grad and loss
# per sample, the inner step), via the vendored criterion shim.
# Optional companion to `make perf`.
perf-micro:
	cargo bench -p chopim-dram -p chopim-core -p chopim-nda -p chopim-ml

# Fast-forward vs naive-loop equivalence (bit-identical SimReports).
lockstep:
	cargo test --release -p chopim-exp --test ff_lockstep

# Channel-sharded executor determinism: serial vs 2-thread vs 4-thread
# shard execution must produce bit-identical SimReports.
lockstep-shard:
	cargo test --release -p chopim-exp --test shard_lockstep

# Snapshot/resume + trace lockstep: resuming a mid-run image is
# bit-identical under every engine mode; captured traces replay to
# identical DramStats (what the CI `equivalence` job runs).
lockstep-snapshot:
	cargo test --release -p chopim-exp --test snapshot_lockstep

# The fault plane end to end (the CI `chaos` job): active-plan lockstep
# across thread counts/loops + snapshot-under-faults, recovery liveness
# properties (no lost ops, capped backoff), malformed-input fuzzing
# of the CHSS/CHTR readers, and the FSM-level image refusals.
chaos:
	cargo test --release -p chopim-exp --test fault_lockstep
	cargo test --release -p chopim-core --test fault_recovery_props
	cargo test --release -p chopim-dram --test malformed_input_props
	cargo test --release -p chopim-core --test malformed_snapshot_props
	cargo test --release -p chopim-core --lib corrupt_index
	cargo test --release -p chopim-nda --lib corrupt

# Workspace docs with warnings denied (undocumented public items and
# broken intra-doc links fail) plus the doctests — the CI `docs` job.
docs:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
	cargo test --doc

# Build and run every example with CI-sized windows (what the CI
# `examples` job does) — catches runtime-API drift in examples fast.
examples:
	cargo build --release --examples
	CHOPIM_BENCH_CYCLES=5000 cargo run --release --example quickstart
	CHOPIM_BENCH_CYCLES=5000 cargo run --release --example colocation
	CHOPIM_BENCH_CYCLES=5000 cargo run --release --example layout_explorer
	CHOPIM_BENCH_CYCLES=5000 cargo run --release --example svrg_collaboration
	CHOPIM_BENCH_CYCLES=5000 cargo run --release -p chopim-core --example count_ticks
	CHOPIM_BENCH_CYCLES=5000 cargo run --release -p chopim-core --example probe

lint:
	cargo clippy --all-targets -- -D warnings && cargo fmt --check
	$(MAKE) lint-chopim

# Project-specific source lints (see docs/LINTS.md), four passes:
# determinism, shard-boundary discipline, cold-path annotations, and
# forbid(unsafe_code) — enforced by crates/lint.
lint-chopim:
	cargo run --release -p chopim-lint -- .

# Lockstep suites (the fault plane's included), the arbitration suites
# and the credit-waitlist wake-rule tests under a release profile with
# debug-assertions and overflow-checks on: every debug_assert oracle
# (ready-index vs full scan, horizon conservatism) and arithmetic
# overflow fires at release optimisation levels too.
checked-release:
	cargo test --profile release-checked -p chopim-exp --test ff_lockstep --test shard_lockstep --test snapshot_lockstep --test fault_lockstep
	cargo test --profile release-checked -p chopim-core --test qos_sched_props --test session_dag_props --test runtime_props
	cargo test --profile release-checked -p chopim-core --lib arbitration

# The repository benchmark (chopim-benchmark/, a workspace of its own that
# no other target compiles): both build variants run.sh uses, then its
# tests. A public item it calls that goes missing fails here (the CI
# `benchmark` job).
benchmark:
	cargo build --release --locked --manifest-path chopim-benchmark/Cargo.toml
	cargo build --release --locked --manifest-path chopim-benchmark/Cargo.toml --features perf-counters
	cargo test --locked --manifest-path chopim-benchmark/Cargo.toml
