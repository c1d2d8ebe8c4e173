#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass, once, in place: it runs from
# a fresh clone with the registry unreachable (every dependency is a
# checked-in path; .cargo/config.toml keeps cargo offline).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> manifests name only what their sources use"
# The workspace is std-only apart from three registry names, each
# patched to a checked-in stand-in (root Cargo.toml). A dependency line
# is allowed only if some .rs file of that package mentions the crate.
for m in crates/*/Cargo.toml tests/Cargo.toml examples/Cargo.toml; do
  for dep in $(sed -n '/dependencies\]/,/^\[[^d]/s/^\([A-Za-z0-9_-]*\)[. ].*/\1/p' "$m"); do
    case "$dep" in
      gkfs-*|gekkofs|bytes|proptest|criterion) ;;
      *) echo "$m: registry crate '$dep' is not one of bytes/proptest/criterion"; exit 1 ;;
    esac
    grep -rqw --include='*.rs' "${dep//-/_}" "$(dirname "$m")" ||
      { echo "$m: declares '$dep' but no source file mentions it"; exit 1; }
  done
done

echo "==> cargo clippy -- -D warnings (unwrap/expect in rpc/daemon/client, wall clock in sim, SAFETY comments, unread completions, narrowing casts in rpc/storage/wire)"
# The rules that are declarations rustc and clippy enforce: crate-root
# #![deny]s, [workspace.lints], clippy.toml and #[must_use] on the five
# completion types (DESIGN.md "Static analysis").
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (every intra-doc link resolves; public docs link only public items)"
# A private item is named in a plain code span, not linked, and a
# citation such as \[37\] is escaped so rustdoc does not read it as one.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (debug: lock-rank descent and blocking under a guard checked at every acquisition and blocking call)"
# gkfs_common::lock's checks run in debug builds only, so every test
# here also checks the lock order and the blocking calls of the paths
# it executes (DESIGN.md "Static analysis"), and the decoder fuzzers
# the wire-count bound.
cargo test -q

echo "==> schedule models, release (taskpool protocol, tcp leader/follower, tcp loop takeover, kvstore rotation hand-off)"
# The loom-style explorers (gkfs_common::model) run every interleaving
# their preemption bound admits; release mode keeps the exploration in
# the seconds. Bound 3 matches loom's CI default — raise it locally
# when hunting, not here. (gkfs-storage has no model any more: the
# fd-cache one checked a cached length against racing openers, and the
# cache keeps no length; what is left of the double open has no
# order-dependent state and is a plain test in file.rs.)
LOOM_MAX_PREEMPTIONS=3 cargo test --release -p gkfs-common -p gkfs-rpc -p gkfs-kvstore model

echo "==> miri (UB check: gkfs-common incl. wire codecs)"
# Needs the nightly miri component; environments without it (no
# network, stable-only) skip here — the dedicated CI job still runs it.
if cargo +nightly miri --version >/dev/null 2>&1; then
  MIRIFLAGS="-Zmiri-disable-isolation" cargo +nightly miri test -p gkfs-common
else
  echo "miri unavailable (nightly component not installed); skipping — ci.yml's miri job covers this"
fi

echo "==> bench smoke (compile + run benches in test mode)"
# Every bench body once, in release. For the TCP transport that is the
# lone call (`rpc/tcp_roundtrip*`: read by its waiter, the point op also
# served on the daemon's loop, both ends hot so that each finds the
# other's frame by polling rather than a wake-up), the pipelined burst
# (`rpc/tcp_outstanding`: handler pool, replies read by their waiters)
# and the fan-out (`rpc/fanout_8daemons`: one thread, eight handles,
# each leg read by its waiter). Every reply is read by a waiter; the
# client starts no thread to read a connection.
cargo bench -p gkfs-bench --bench rpc -- --test

echo "==> evaluation tools (every figure at its smallest size; CSV series byte for byte)"
# `figures --smoke` runs every series and every real-FS pass of the
# paper's evaluation at its smallest size — batch-grid sized to the
# cores it finds — so no evaluation tool can rot unrun. The plotted
# series are deterministic (simulator only): `figures --csv` must
# reproduce the checked-in results/*.csv byte for byte; after a
# deliberate model change, regenerate them with `figures --csv results`.
cargo run --release -q -p gkfs-bench --bin figures -- --smoke > /dev/null
csv_out=$(mktemp -d)
cargo run --release -q -p gkfs-bench --bin figures -- --csv "$csv_out" > /dev/null
for f in results/*.csv; do
  cmp "$f" "$csv_out/$(basename "$f")"
done
rm -rf "$csv_out"
# The §V ablations are simulator-only tables (the real code has one
# placement): their printed form must reproduce byte for byte too.
for name in distribution_sim chunk_size_sim; do
  cargo run --release -q -p gkfs-bench --bin figures -- "$name" | cmp - "results/$name.txt"
done

echo "==> CRC32 kernels, release (each kernel this CPU has against the table; stores crossed between kernels)"
# The frame, WAL and SSTable checksum has three kernels picked at run
# time: 512-bit (vpclmulqdq + avx512f), 128-bit (pclmulqdq) and tables.
# The equivalence tests can only compare the kernels this runner has,
# so the log prints them ("crc32 kernels on this CPU: [...]") and says
# so when the 512-bit kernel was not exercised.
cargo test --release -p gkfs-common crc -- --show-output
cargo test --release -p gkfs-kvstore --test crc_kernels -- --show-output

echo "==> workload verification, release (a corrupted read must fail the run)"
# The small-file scan checks every byte it reads with a real error, not
# a debug assertion; this is the build in which that difference shows.
cargo test -p gkfs-workloads --release scan_fails_the_run_on_a_corrupted_read

echo "==> client RPC budget + TCP thread hand-off gates (counts, not wall-clock)"
# mdtest with a 4 KiB payload and 8 KiB sequential IOR, counted in client RPCs
# (ClientStats::rpcs_issued): fails if RPCs-per-op exceeds the pinned
# budget or drops under the 2x-vs-old-protocol acceptance bound. RPC
# counts are deterministic, so this gate is noise-free even on loaded
# CI machines. Same file, same kind of number: over TCP a unary mdtest
# run must show every metadata RPC served on the daemon's loop and
# read by its waiter (0 thread hand-offs per RPC), while a 512 KiB
# chunk write, a pipelined burst and a two-daemon fan-out keep the
# handler pool; a chunk read's reply, alone or a fan-out's leg, is read
# by its own waiter straight into its result. And one count from the store: an
# unlink of a known size names its chunk ids end to end, so no daemon
# enumerates a directory for it. Since chunk 0 lives with the inode the
# same file holds the small-file gate: a write-back ingest of a 4 KiB
# file is 1 frame per metadata replica (it was 3 RPCs), its unlink 1
# (was 2), a write-through pwrite 1 frame wherever its chunk's owner is
# the metadata owner, a zero-byte create/unlink 1/1 with no chunk store
# touched — and the one serial exception (an unborn file starting past
# chunk 0 hears its create before another leg leaves). Since a read-only
# open on a write-back mount returns the file (one `OpenFile` frame, the
# entry and chunk 0 from the daemon that holds both), its scan is 2
# round trips (was 3: stat, the open's stat, ReadChunks), a second pread
# through the handle 0, at 1 and at 2 replicas; still 3 on a
# write-through mount, 3 on both for a file one byte over what an open
# reply carries, an O_RDWR open holds nothing, a file the daemons have
# not been told of is read at 0 frames — and over TCP that open is served
# on the daemon's loop and its reply, 4 KiB or the 16 KiB most it
# carries, read by its waiter. And the shuffled-write row
# (shuffled_writes_send_only_the_size_updates_that_grow_the_file): on a
# write-through mount 1 024 seeded-shuffled 8 KiB pwrites to one file
# send at most 24 size updates and 1.03 RPCs per write — only a write
# that grows the file past what its owner holds sends one — the close at
# most one more, and the same writes in sequence still send 1 024.
cargo test -p gkfs-integration --release --test rpc_budget

echo "==> TCP poll-before-park and the daemon's loop, release (the hot rule; the write half stays blocking; nothing stalls the loop)"
# A hot reader — a client's connection, the daemon's loop — polls for a
# 50 µs window before it blocks. Counted, not timed: a connection
# answered 5 ms late never polls, back-to-back round trips poll on both
# ends, a connection left idle expires at most one window per side; and
# a frame larger than the socket buffers, written while the other half
# polls, blocks rather than fails. Then what the daemon's one loop must
# not do (pipelining.rs): a slow inline op, a client that never reads
# its replies, or a peer stalled halfway through a 1 MiB frame delays
# another connection's ten calls by less than 400 ms; 64 idle
# connections are served by two threads; an idle daemon's standby does
# not tick. And a failed accept (EMFILE) takes the listener out of the
# loop's set for a tick instead of spinning (accept_errors.rs, a
# process of its own). Only release timing keeps round trips inside the
# window and makes the 400 ms bounds tight.
cargo test -p gkfs-rpc --release --lib poll_
cargo test -p gkfs-rpc --release --test pipelining --test accept_errors

echo "==> chunk-store layout gates, release (one inode per chunk; a write racing an unlink never fails)"
# Counts again: 3000 one-chunk files are 3000 inodes under at most 1024
# lazily made shard directories, a remove by known ids gives them all
# back without enumerating a directory, and "whatever you hold" takes
# one path and none of its shard neighbours. The writer-vs-remover race
# on one path runs here because only release timing makes it tight.
cargo test -p gkfs-storage --release --test layout

echo "==> data-plane copy-bytes gate (TCP scatter-gather replies copy zero bytes)"
# The zero-copy data plane's regression gate: over real TCP, full-data
# ReadChunks replies must report read_reply_copy_bytes == 0 (bytes go
# fd -> chunk buffer -> socket with no assembly Vec), while a sparse
# control batch proves the counter is live. Byte counts are exact, so
# this gate is noise-free like the RPC budget above.
cargo test -p gkfs-integration --release --test copy_gate

echo "==> metadata allocation budget (an op allocates what the store keeps)"
# Counted, not timed, like the copy gate: on a warm daemon, a create /
# stat / unlink in a 32-op BatchMeta frame and as a unary row, through
# build_registry dispatch plus the reply prefix, allocates at most its
# budget on the serving thread — the decoded path, the key and record
# the memtable keeps, the copy a read takes, a share of the frame.
cargo test -p gkfs-daemon --release --test alloc_budget

echo "==> ledger smoke (the benchmark builds and runs as BENCHMARK.json builds it)"
# BENCHMARK.json's program lives outside the workspace, with a manifest
# and lock file of its own (non-benchmark PRs may not touch ledger/).
# It builds the product crates against the same `bytes` stand-in as the
# workspace (ledger/stubs/bytes: Bytes::{from(Vec), slice,
# copy_from_slice, from_static}, no BytesMut); its patches for the four
# crates the workspace no longer names only warn as unused. The smoke
# runs all five workloads at tiny sizes, untraced and traced.
cargo test --offline --manifest-path ledger/Cargo.toml

echo "==> kvstore release stress (optimized timing: stalls, group commit, crash recovery)"
# The LSM concurrency tests (background flush races, write stalls,
# group-commit fan-in, crash/reopen proptests) depend on real timing
# and thread interleaving; debug-mode runs are too slow to exercise
# the contended paths, so run the kvstore suite again in release.
cargo test -p gkfs-kvstore --release -q
# The decoder fuzz (tests/fuzz_decoders.rs) ran its tier-1 rows just
# now; this is its long variant — the seeded flips and splices at 100x
# over four fresh seeds, ~10 s. A failure prints the row (corpus,
# mutation, seed) that reproduces it.
cargo test -p gkfs-kvstore --release -q --test fuzz_decoders -- --ignored
# The same for what comes off a socket (crates/rpc/tests/fuzz_wire.rs,
# on the same harness): every RPC body, both frame kinds and the TCP
# frame assembler, whose stream rows find the socket drained between
# pieces as every reader does — seeded rows at 100x, ~3 s.
cargo test -p gkfs-rpc --release -q --test fuzz_wire -- --ignored

echo "==> one-winner race, release (a batched exclusive create is atomic)"
# N threads released onto one path per round through the daemon's
# metadata interpreter: exactly one exclusive create may win. Debug
# timing barely contends the memtable writer lock the check-and-commit
# runs under, so the race is run where it is tight.
cargo test -p gkfs-daemon --release -q --lib batched_exclusive_create_has_one_winner

echo "==> create/unlink churn, release (a remove forgets what its create put)"
# Counted, not timed: 65 536 files of 32-op create -> unlink frames leave no tombstone, no flush, no entry.
cargo test -p gkfs-daemon --release -q --lib create_unlink_churn_leaves_the_store_empty

echo "==> chaos suite, release (seeded fault injection under workloads)"
# Seeded chaos: mdtest/smallfile-shaped workloads under seeded
# drop/delay/duplicate/corrupt/reset injection, plus a TCP proxy with
# mid-workload connection severing. Seeds are fixed in
# tests/tests/chaos.rs, so a red run replays the same fault decisions;
# thread interleaving and the injected delays still run on real threads
# in real time, so the run itself may not repeat. Release mode:
# the suite is timeout-bound and debug-mode handler overhead distorts
# the deadline-bound assertions.
cargo test -p gkfs-integration --release --test chaos -- --test-threads=2

echo "==> replication kill/rejoin, release (3 seeds, zero acked-write loss)"
# N-way replication under the kill -> degraded writes -> rejoin ->
# converge -> kill-another schedule (3 fixed seeds iterated inside the
# tests), plus a hedged-read workload with one daemon down and the
# failover contrast test. Gate: every acknowledged write reads back
# bit-exact at every phase, and drain-back converges within the bound.
# The schedule and hedged-read tests live in tests/tests/chaos.rs and
# ran in the chaos suite above; the replication masks run here.
cargo test -p gkfs-integration --release --test fault_and_recovery -- \
    replication_masks

echo "==> parallel-storage stress, release (clients x chunks x chaos seeds)"
# The chunk task engine + fd-cached storage under concurrent striped
# I/O from many mounts, against disk-backed daemons. The chaos variant
# is --ignored in debug runs: only release timing actually contends
# the fd cache and the per-chunk task pool.
cargo test -p gkfs-integration --release --test parallel_storage -- --include-ignored --test-threads=2

echo "==> product-code line and option counts (scripts/loc.sh; ROADMAP item 3's yardstick)"
# Not a gate: the per-crate `before → after (Δ)` table, and the number
# of settable options beside it, that a simplicity PR reports in
# EXPERIMENTS.md, against the previous commit when there is one (a
# shallow clone has none; it gets the plain counts).
if git rev-parse -q --verify HEAD~1 >/dev/null; then
  scripts/loc.sh --against HEAD~1
else
  scripts/loc.sh
fi

echo "ci: all green"
