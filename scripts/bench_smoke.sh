#!/usr/bin/env bash
# Hot-path benchmark smoke run. Builds the release tree, runs the hot-path
# benches at smoke sizes and writes the before/after ratios to
# BENCH_hotpath.json at the repo root:
#   - Paillier decryption: CRT fast path vs reference lambda/mu path
#   - randomizer: fixed-base windowed table vs square-and-multiply PowMod
#   - SMC stage: batched engine (threads + CRT + randomizer pool) vs the
#     serial reference engine, on the timing-table workload
#   - packed SMC: several pairs per ciphertext on top of the fast engine
#   - offline/online: warm persisted-material online stage vs the cold
#     end-to-end stage (keygen + prewarm + compare) on the same workload
#   - blocking: memoized SlackTable sweep vs the seed's direct sweep
#   - tcp transport: measured wall clock and wire bytes of a real
#     three-daemon loopback run vs the NetworkModel(LAN) projection
#   - pipelined rpc: ctl round trips at batch 32 vs one round trip per pair
#   - sharded smc: the same linkage over a 4-shard comparator fleet vs one
#     shard, under emulated per-pair latency (the overlap sharding buys)
#   - async datapath: SocketBus bulk throughput vs raw loopback TCP moving
#     the identical checksummed wire-v6 frames (overhead budget: 2x)
#   - arena alloc: GMP allocations per packed-SMC pair, arena off vs on
#     (reduction floor: 5x)
#   - short exponent: ScalarMul(c, -rho) vs ScalarMul(c, rho) at the default
#     40 blind bits (ratio ceiling: 2x)
#   - cross-term reuse: Paillier encryptions per packed pair on a batch whose
#     pairs share Alice rows (ceiling: 2.0; 5 + 1/3 without reuse)
#   - packed layout: decryptions and encryptions per packed pair on a batch
#     of the five Adult QIDs grouped by Alice row, slots sized from their
#     public bounds (ceilings: 0.15 and 0.6; 0.33 and ~1.0 with uniform
#     64-bit slots dealt contiguously)
#   - tcp exchange: the loopback run's querying-party decryptions vs an
#     in-process scalar run of the same spec (must be exactly 1.0: the
#     daemon stops at each pair's first failing attribute) and its Paillier
#     encryptions per SMC pair (ceiling: 6.8; 15 when every pair encrypted
#     every attribute afresh)
#
#   scripts/bench_smoke.sh [build-dir]           # run + write BENCH_hotpath.json
#   scripts/bench_smoke.sh --check [build-dir]   # run, compare against the
#       committed BENCH_hotpath.json and fail if any recorded speedup drops
#       below 80% of its committed value, if the async-datapath overhead
#       ratio exceeds 2x, if the arena allocation reduction falls below
#       5x, if a negative scalar costs over 2x a positive one, if a
#       packed pair costs over 2 encryptions, if the packed layout costs
#       over 0.15 decryptions or 0.6 encryptions per pair, if the TCP
#       exchange decrypts
#       more or less than the in-process one, or if it spends over 6.8
#       encryptions per SMC pair; the committed file is not rewritten
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK=0
if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
  shift
fi
BUILD="${1:-build}"

cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j --target micro_crypto micro_blocking timing_table \
  hprl_link hprl_party hprl_gen net_throughput micro_arena

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== micro_crypto: CRT decrypt + fixed-base randomizer + ±rho ScalarMul =="
"./$BUILD/bench/micro_crypto" \
  --benchmark_filter='(BM_PaillierDecrypt(Crt|Reference)|BM_Randomizer(FixedBasePow|ReferencePowMod))/1024|BM_PaillierScalarMulBlind/' \
  --benchmark_format=json --benchmark_out="$TMP/crypto.json" \
  --benchmark_out_format=json

echo "== timing_table: batched + packed SMC + cold/warm material stages =="
"./$BUILD/bench/timing_table" --rows 400 --smc-reps 3 --smc-threads 4 \
  --smc-batch 32 --smc-pack 8 --material-dir "$TMP/material" \
  --metrics_out "$TMP/timing.json" --reuse-out "$TMP/reuse.json" \
  --layout-out "$TMP/layout.json"

echo "== micro_blocking: memoized sweep vs direct sweep (+ cutoff guard) =="
"./$BUILD/bench/micro_blocking" --rows 4000 --k 8 --threads 4 \
  --metrics_out "$TMP/blocking.json"

echo "== tcp transport: three-daemon loopback run, measured vs modeled =="
# Wall-clock blocks run three times; the python below keeps the best rep
# of each so a scheduler hiccup cannot fail --check spuriously.
"./$BUILD/tools/hprl_gen" --out "$TMP/tcpdata" --rows 300 --seed 7 >/dev/null
sed -i 's/^keybits .*/keybits 256/; s/^allowance .*/allowance 0.01/' \
  "$TMP/tcpdata/linkage.spec"
for rep in 1 2 3; do
  "./$BUILD/tools/hprl_link" --spec "$TMP/tcpdata/linkage.spec" \
    --r "$TMP/tcpdata/r.csv" --s "$TMP/tcpdata/s.csv" --transport tcp \
    --metrics_out "$TMP/tcp_$rep.json" >/dev/null
done

echo "== tcp exchange: the same spec in-process, scalar exchange =="
"./$BUILD/tools/hprl_link" --spec "$TMP/tcpdata/linkage.spec" \
  --r "$TMP/tcpdata/r.csv" --s "$TMP/tcpdata/s.csv" --smc_pack 0 \
  --metrics_out "$TMP/inproc_scalar.json" >/dev/null

echo "== pipelined rpc: ctl round trips, per-pair vs batch 32 =="
"./$BUILD/tools/hprl_link" --spec "$TMP/tcpdata/linkage.spec" \
  --r "$TMP/tcpdata/r.csv" --s "$TMP/tcpdata/s.csv" --transport tcp \
  --rpc_batch 1 --metrics_out "$TMP/tcp_perpair.json" >/dev/null
"./$BUILD/tools/hprl_link" --spec "$TMP/tcpdata/linkage.spec" \
  --r "$TMP/tcpdata/r.csv" --s "$TMP/tcpdata/s.csv" --transport tcp \
  --rpc_batch 32 --rpc_window 4 --metrics_out "$TMP/tcp_batch32.json" \
  >/dev/null

echo "== sharded smc: 4-shard comparator fleet vs 1 shard (emulated latency) =="
# The daemons sleep 10 ms per pair (--net_emu_latency_micros), making the
# stage latency-bound: the speedup measures the coordinator overlapping the
# shards' latency windows — what sharding buys on a real network — not CPU
# core multiplication (docs/CLUSTER.md). Labels must stay bit-identical.
for rep in 1 2 3; do
  "./$BUILD/tools/hprl_link" --spec "$TMP/tcpdata/linkage.spec" \
    --r "$TMP/tcpdata/r.csv" --s "$TMP/tcpdata/s.csv" --transport tcp \
    --shards 1 --net_emu_latency_micros 10000 \
    --links "$TMP/links_shard1.csv" \
    --metrics_out "$TMP/tcp_shard1_$rep.json" >/dev/null
  "./$BUILD/tools/hprl_link" --spec "$TMP/tcpdata/linkage.spec" \
    --r "$TMP/tcpdata/r.csv" --s "$TMP/tcpdata/s.csv" --transport tcp \
    --shards 4 --net_emu_latency_micros 10000 \
    --links "$TMP/links_shard4.csv" \
    --metrics_out "$TMP/tcp_shard4_$rep.json" >/dev/null
  diff "$TMP/links_shard1.csv" "$TMP/links_shard4.csv" \
    || { echo "FAIL: 4-shard links differ from single-shard links"; exit 1; }
done

echo "== net_throughput: SocketBus vs raw TCP, identical framed traffic =="
"./$BUILD/bench/net_throughput" --msgs 128 --reps 3 \
  --out "$TMP/net_throughput.json"

echo "== micro_arena: GMP allocations per packed pair, arena off vs on =="
"./$BUILD/bench/micro_arena" --groups 10 --out "$TMP/arena.json"

CHECK="$CHECK" python3 - "$TMP" <<'EOF'
import json, sys, os

tmp = sys.argv[1]
check = os.environ.get("CHECK") == "1"

with open(os.path.join(tmp, "crypto.json")) as f:
    crypto = json.load(f)
bench_ms = {b["name"]: b["real_time"] for b in crypto["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"}
crt_ms = bench_ms["BM_PaillierDecryptCrt/1024"]
ref_ms = bench_ms["BM_PaillierDecryptReference/1024"]
fb_ms = bench_ms["BM_RandomizerFixedBasePow/1024"]
powmod_ms = bench_ms["BM_RandomizerReferencePowMod/1024"]
rho_ms = bench_ms["BM_PaillierScalarMulBlind/rho"]
neg_rho_ms = bench_ms["BM_PaillierScalarMulBlind/neg_rho"]

def series(path):
    with open(os.path.join(tmp, path)) as f:
        return {row["label"]: row for row in json.load(f)["series"]}

timing = series("timing.json")
smc_serial = timing["smc_stage_serial_reference"]["smc_seconds"]
smc_fast = timing["smc_stage_fast"]["smc_seconds"]
smc_packed = timing["smc_stage_packed"]["smc_seconds"]
smc_plain_call = timing["smc_compare_plain"]["smc_seconds"]
smc_fault_call = timing["smc_compare_fault_layer"]["smc_seconds"]

blocking = series("blocking.json")
direct = blocking["direct_slack_decide"]["blocking_seconds"]
memo = blocking["memoized_1_thread"]["blocking_seconds"]
par_label = [l for l in blocking if l.startswith("memoized_") and
             l.endswith("_threads")][0]
par = blocking[par_label]["blocking_seconds"]

report = {
    "schema": "hprl-bench-hotpath/2",
    "paillier_decrypt_1024": {
        "reference_ms": ref_ms,
        "crt_ms": crt_ms,
        "speedup": ref_ms / crt_ms,
    },
    # Randomizer hot path: h_n^s through the fixed-base windowed table vs the
    # reference square-and-multiply r^n mod n². This is the per-randomizer
    # cost behind the RandomizerPool's fast refill.
    "randomizer_fixed_base_1024": {
        "reference_powmod_ms": powmod_ms,
        "fixed_base_ms": fb_ms,
        "speedup": powmod_ms / fb_ms,
    },
    "smc_stage": {
        "serial_reference_seconds": smc_serial,
        "fast_seconds": smc_fast,
        "speedup": smc_serial / smc_fast,
    },
    # Packed plaintext path (8 pairs per ciphertext) on top of the fast
    # engine, vs the serial scalar reference. fast_seconds is recorded next
    # to it so the packing delta on the already-fast engine stays visible.
    "packed_smc": {
        "serial_reference_seconds": smc_serial,
        "fast_seconds": smc_fast,
        "packed_seconds": smc_packed,
        "pack_pairs": 8,
        "speedup": smc_serial / smc_packed,
    },
    # Fault-injection layer decorating the transport at all-zero rates,
    # measured as the per-comparison latency floor on the serial protocol:
    # the overhead_fraction target on the SMC stage is < 0.03.
    "smc_stage_fault_overhead": {
        "plain_compare_seconds": smc_plain_call,
        "fault_layer_compare_seconds": smc_fault_call,
        "overhead_fraction": (smc_fault_call - smc_plain_call)
                             / smc_plain_call,
    },
    "blocking_sweep": {
        "direct_seconds": direct,
        "memoized_seconds": memo,
        "memoized_parallel_seconds": par,
        "speedup": direct / memo if memo > 0 else float("inf"),
    },
}

# Offline/online phase split: cold end-to-end SMC stage (keygen + material
# prewarm + compare, empty store) vs the warm online stage alone (persisted
# material adopted; the offline phase shrinks to a file load, reported next
# to it). Same labels both ways, asserted inside timing_table. The warm
# speedup is the acceptance criterion (>= 3x).
report["offline_online"] = {
    "cold_total_seconds": timing["material_cold_total"]["smc_seconds"],
    "warm_offline_seconds": timing["material_warm_offline"]["smc_seconds"],
    "warm_online_seconds": timing["material_warm_online"]["smc_seconds"],
    "speedup": (timing["material_cold_total"]["smc_seconds"]
                / timing["material_warm_online"]["smc_seconds"]),
}

# Real three-daemon loopback run vs the NetworkModel(LAN) projection. The
# wire/accounted ratio is the acceptance criterion (within 5%); the
# measured/estimated ratio quantifies how pessimistic the serialized-crypto
# LAN model is against a loopback deployment. Wall-clock blocks are
# best-of-3: each rep wrote its own report, keep the fastest stage.
def best_gauges(pattern):
    reps = []
    for rep in (1, 2, 3):
        with open(os.path.join(tmp, pattern % rep)) as f:
            reps.append(json.load(f)["gauges"])
    return min(reps, key=lambda g: g["net.measured_smc_seconds"])

tcp_gauges = best_gauges("tcp_%d.json")
wire = tcp_gauges["net.wire_bytes_sent"]
accounted = tcp_gauges["net.bus_accounted_bytes"]
measured_s = tcp_gauges["net.measured_smc_seconds"]
estimated_s = tcp_gauges.get("net.estimated_smc_seconds")
report["tcp_transport"] = {
    "measured_smc_seconds": measured_s,
    "estimated_smc_seconds_lan": estimated_s,
    "measured_vs_estimated": (measured_s / estimated_s
                              if estimated_s else None),
    "wire_bytes_sent": wire,
    "bus_accounted_bytes": accounted,
    "wire_vs_accounted_ratio": wire / accounted,
}

# Windowed pipelined batch RPC: the same loopback linkage with one ctl round
# trip per pair vs pairb frames of 32 pairs, 4 batches in flight. The
# reduction is the acceptance criterion (>= 8x at batch 32).
def ctl_trips(path):
    with open(os.path.join(tmp, path)) as f:
        run = json.load(f)
    return run["counters"]["net.ctl_round_trips"]

per_pair = ctl_trips("tcp_perpair.json")
batch32 = ctl_trips("tcp_batch32.json")
report["pipelined_rpc"] = {
    "ctl_round_trips_per_pair_mode": per_pair,
    "ctl_round_trips_batch32": batch32,
    "round_trip_reduction": per_pair / batch32,
}

# Comparator fleet: the same linkage over 4 shard meshes vs 1, with the
# daemons sleeping 10 ms per pair so the stage is latency-bound. The
# speedup is the SMC-stage wall-clock ratio (acceptance: >= 2.5x at 4
# shards), best-of-3 per side; links were diffed bit-identical by the
# shell above on every rep.
shard1_s = best_gauges("tcp_shard1_%d.json")["net.measured_smc_seconds"]
shard4_s = best_gauges("tcp_shard4_%d.json")["net.measured_smc_seconds"]
report["sharded_smc"] = {
    "shards": 4,
    "emulated_latency_micros": 10000,
    "smc_seconds_1_shard": shard1_s,
    "smc_seconds_4_shards": shard4_s,
    "speedup": shard1_s / shard4_s,
}

# Async datapath: the epoll SocketBus pushing bulk messages vs a blocking
# raw-TCP loop carrying the identical checksummed wire-v6 frames. Lower is
# better for the ratio; the key deliberately avoids the generic "speedup"
# name so the 80%-floor loop below never touches it — it carries its own
# guard (raw_over_bus_ratio <= 2.0).
with open(os.path.join(tmp, "net_throughput.json")) as f:
    netthru = json.load(f)
report["async_datapath"] = {
    "msg_bytes": netthru["msg_bytes"],
    "raw_mbps": netthru["raw_mbps"],
    "bus_mbps": netthru["bus_mbps"],
    "raw_over_bus_ratio": netthru["raw_over_bus_ratio"],
}

# Arena allocation audit: GMP heap allocations per packed-SMC pair, scratch
# arena off vs on, with bit-identical labels asserted by the bench itself.
# Guarded below by its own floor (reduction >= 5.0), not the generic loop.
with open(os.path.join(tmp, "arena.json")) as f:
    arena = json.load(f)
report["arena_alloc"] = {
    "allocs_per_pair_no_arena": arena["allocs_per_pair_no_arena"],
    "allocs_per_pair_arena": arena["allocs_per_pair_arena"],
    "reduction": arena["reduction"],
}

# Short-exponent homomorphic ops: the blinded comparison's ScalarMul(c, -rho)
# vs ScalarMul(c, rho). A negative scalar exponentiates c⁻¹ by |k| rather
# than c by n - |k|, so the ratio sits near 1. Guarded below by its own
# ceiling (<= 2.0), not the generic loop.
report["short_exponent"] = {
    "blind_bits": 40,
    "scalar_mul_rho_ms": rho_ms,
    "scalar_mul_neg_rho_ms": neg_rho_ms,
    "neg_over_pos_ratio": neg_rho_ms / rho_ms,
}

# Cross-term reuse: Paillier encryptions per packed pair when consecutive
# pairs share an Alice row (16 Bob rows per Alice row, 5 attributes, 6 pairs
# per group). Alice encrypts each (row, position) cross term once per batch,
# so only the per-group packed squares scale with the pairs. Guarded below
# by its own ceiling (<= 2.0), not the generic loop.
with open(os.path.join(tmp, "reuse.json")) as f:
    reuse = json.load(f)
report["cross_term_reuse"] = {
    "attrs": reuse["attrs"],
    "pairs_per_alice_row": reuse["pairs_per_alice_row"],
    "packed_pairs": reuse["packed_pairs"],
    "encryptions": reuse["encryptions"],
    "enc_per_packed_pair": reuse["enc_per_packed_pair"],
}

# Packed layout: the five Adult QIDs of hprl_gen's spec, slots sized from
# their hierarchies (62 bits per pair, 8 pairs per plaintext at --smc-pack
# 8), on 8 Alice rows x 16 Bob rows dealt into groups by stride. Counts,
# not timings: one decryption per group, each row's cross terms once.
# Guarded below by its own ceilings (<= 0.15 and <= 0.6).
with open(os.path.join(tmp, "layout.json")) as f:
    layout = json.load(f)
report["packed_layout"] = {
    "attrs": layout["attrs"],
    "alice_rows": layout["alice_rows"],
    "pairs_per_alice_row": layout["pairs_per_alice_row"],
    "packed_pairs": layout["packed_pairs"],
    "pairs_per_group": layout["pairs_per_group"],
    "decryptions": layout["decryptions"],
    "encryptions": layout["encryptions"],
    "dec_per_packed_pair": layout["dec_per_packed_pair"],
    "enc_per_packed_pair": layout["enc_per_packed_pair"],
}

# Streamed TCP exchange: the querying daemon stops at each pair's first
# failing attribute, so it decrypts exactly what the in-process scalar
# comparator decrypts on the same spec (ratio 1.0, guarded exactly), and
# Alice encrypts each (row, position, value) once per pairb batch while Bob
# still encrypts every attribute (ceiling 6.8 below). Counts do not depend
# on timing, so the first loopback rep serves.
with open(os.path.join(tmp, "tcp_1.json")) as f:
    tcp_run = json.load(f)
with open(os.path.join(tmp, "inproc_scalar.json")) as f:
    inproc_run = json.load(f)
tcp_pairs = tcp_run["metrics"]["smc_processed"]
tcp_dec = tcp_run["gauges"]["net.party.decryptions"]
tcp_enc = tcp_run["gauges"]["net.party.encryptions"]
inproc_dec = inproc_run["counters"]["paillier.decryptions"]
report["tcp_exchange"] = {
    "smc_pairs": tcp_pairs,
    "tcp_decryptions": tcp_dec,
    "inproc_decryptions": inproc_dec,
    "tcp_over_inproc_decryptions": tcp_dec / inproc_dec,
    "tcp_encryptions": tcp_enc,
    "enc_per_smc_pair": tcp_enc / tcp_pairs,
}

if check:
    with open("BENCH_hotpath.json") as f:
        committed = json.load(f)
    failures = []
    for block, values in committed.items():
        if not isinstance(values, dict):
            continue
        for key, committed_value in values.items():
            if key not in ("speedup", "round_trip_reduction"):
                continue
            measured = report.get(block, {}).get(key)
            if measured is None:
                failures.append(f"{block}.{key}: missing from this run")
            elif measured < 0.8 * committed_value:
                failures.append(
                    f"{block}.{key}: measured {measured:.2f} < 80% of "
                    f"committed {committed_value:.2f}")
            else:
                print(f"check OK {block}.{key}: {measured:.2f} "
                      f"(committed {committed_value:.2f})")
    # Absolute-threshold guards (not relative to the committed value):
    # the async datapath must stay within its 2x overhead budget and the
    # arena must keep at least its 5x allocation reduction.
    ratio = report["async_datapath"]["raw_over_bus_ratio"]
    if ratio > 2.0:
        failures.append(
            f"async_datapath.raw_over_bus_ratio: measured {ratio:.2f} "
            f"> 2.0 overhead budget")
    else:
        print(f"check OK async_datapath.raw_over_bus_ratio: "
              f"{ratio:.2f} (budget 2.0)")
    reduction = report["arena_alloc"]["reduction"]
    if reduction < 5.0:
        failures.append(
            f"arena_alloc.reduction: measured {reduction:.2f} "
            f"< 5.0 floor")
    else:
        print(f"check OK arena_alloc.reduction: {reduction:.2f} "
              f"(floor 5.0)")
    neg_ratio = report["short_exponent"]["neg_over_pos_ratio"]
    if neg_ratio > 2.0:
        failures.append(
            f"short_exponent.neg_over_pos_ratio: measured {neg_ratio:.2f} "
            f"> 2.0 ceiling")
    else:
        print(f"check OK short_exponent.neg_over_pos_ratio: "
              f"{neg_ratio:.2f} (ceiling 2.0)")
    enc_per_pair = report["cross_term_reuse"]["enc_per_packed_pair"]
    if enc_per_pair > 2.0:
        failures.append(
            f"cross_term_reuse.enc_per_packed_pair: measured "
            f"{enc_per_pair:.2f} > 2.0 ceiling")
    else:
        print(f"check OK cross_term_reuse.enc_per_packed_pair: "
              f"{enc_per_pair:.2f} (ceiling 2.0)")
    for key, ceiling in (("dec_per_packed_pair", 0.15),
                         ("enc_per_packed_pair", 0.6)):
        measured = report["packed_layout"][key]
        if measured > ceiling:
            failures.append(
                f"packed_layout.{key}: measured {measured:.4f} > "
                f"{ceiling} ceiling")
        else:
            print(f"check OK packed_layout.{key}: {measured:.4f} "
                  f"(ceiling {ceiling})")
    dec_ratio = report["tcp_exchange"]["tcp_over_inproc_decryptions"]
    if dec_ratio != 1.0:
        failures.append(
            f"tcp_exchange.tcp_over_inproc_decryptions: measured "
            f"{dec_ratio:.4f} != 1.0")
    else:
        print("check OK tcp_exchange.tcp_over_inproc_decryptions: 1.0")
    tcp_enc_per_pair = report["tcp_exchange"]["enc_per_smc_pair"]
    if tcp_enc_per_pair > 6.8:
        failures.append(
            f"tcp_exchange.enc_per_smc_pair: measured "
            f"{tcp_enc_per_pair:.2f} > 6.8 ceiling")
    else:
        print(f"check OK tcp_exchange.enc_per_smc_pair: "
              f"{tcp_enc_per_pair:.2f} (ceiling 6.8)")
    if failures:
        print("BENCH CHECK FAILED:", *failures, sep="\n  ")
        sys.exit(1)
    print("bench check passed: no speedup below 80% of committed")
else:
    # Merge over the committed file: blocks this script does not produce
    # (e.g. `streaming`, owned by scripts/serve_smoke.sh) are preserved.
    try:
        with open("BENCH_hotpath.json") as f:
            merged = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        merged = {}
    merged.update(report)
    with open("BENCH_hotpath.json", "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(json.dumps(report, indent=2))
EOF

if [[ "$CHECK" == "1" ]]; then
  echo "== bench check OK (BENCH_hotpath.json unchanged) =="
else
  echo "== wrote BENCH_hotpath.json =="
fi
