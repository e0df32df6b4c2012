#!/usr/bin/env bash
# Streaming-service smoke: a seeded 1k-delta churn stream driven through
# `hprl_link --serve` (docs/SERVICE.md). Asserts, at smoke scale, the three
# properties the subsystem promises:
#
#   - determinism: the final links of the streamed run are bit-identical to
#     an uninterrupted one-batch replay of the same stream;
#   - crash consistency: a coordinator SIGKILLed mid-stream (after the
#     journal write for delta N) and relaunched with --resume settles the
#     exact same links with zero lost or duplicated verdicts — replayed +
#     live SMC spend must equal the uninterrupted run's spend;
#   - transport independence: the same stream over a real hprl_party TCP
#     fleet (wire v6 resident tables: delta pushes + sentinel pair frames)
#     produces the same links again.
#
# It then records the sustained blocked-pairs/sec and the p99
# delta-to-verdict latency of the uninterrupted run into the `streaming`
# block of BENCH_hotpath.json. One run times only ~6 ms of plaintext
# deltas, which a busy host swings by 2x, so the stream is timed 21 times
# and the block holds the medians:
#
#   scripts/serve_smoke.sh [build-dir]           # run + merge the block
#   scripts/serve_smoke.sh --check [build-dir]   # run, then fail if
#       throughput drops below 80% of the committed value or p99 rises
#       above 125%; the committed file is not rewritten
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK=0
if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
  shift
fi
BUILD="${1:-build}"

cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j --target hprl_link hprl_party hprl_gen churn

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"; pkill -P $$ hprl_party 2>/dev/null || true' EXIT

echo "== churn: seeded 1k-delta stream over the demo workspace =="
"./$BUILD/tools/hprl_gen" --out "$TMP/demo" --rows 400 --seed 7 >/dev/null
"./$BUILD/bench/churn" --out "$TMP/deltas.csv" --deltas 1000 --tenants 2 \
  --seed 11

echo "== uninterrupted run: the reference links + the bench numbers =="
"./$BUILD/tools/hprl_link" --spec "$TMP/demo/linkage.spec" --serve \
  --deltas "$TMP/deltas.csv" --links "$TMP/links_ref.csv" \
  --metrics_out "$TMP/run_ref.json" | tee "$TMP/ref.out"
grep '^HPRL_SERVE summary:' "$TMP/ref.out" > "$TMP/ref.summary"
cp "$TMP/ref.summary" "$TMP/timing.summaries"
for rep in $(seq 2 21); do
  "./$BUILD/tools/hprl_link" --spec "$TMP/demo/linkage.spec" --serve \
    --deltas "$TMP/deltas.csv" --links "$TMP/links_rep.csv" \
    | grep '^HPRL_SERVE summary:' >> "$TMP/timing.summaries"
  diff -q "$TMP/links_ref.csv" "$TMP/links_rep.csv" >/dev/null \
    || { echo "FAIL: timing rep $rep links differ from the first run"; exit 1; }
done

echo "== crash consistency: SIGKILL after 300 settled deltas, then --resume =="
set +e
"./$BUILD/tools/hprl_link" --spec "$TMP/demo/linkage.spec" --serve \
  --deltas "$TMP/deltas.csv" --journal "$TMP/serve.jnl" \
  --serve_crash_after 300 >/dev/null 2>&1
CRASH_EXIT=$?
set -e
[[ "$CRASH_EXIT" -eq 137 ]] \
  || { echo "FAIL: crash run exited $CRASH_EXIT, expected SIGKILL (137)"; exit 1; }
"./$BUILD/tools/hprl_link" --spec "$TMP/demo/linkage.spec" --serve \
  --deltas "$TMP/deltas.csv" --journal "$TMP/serve.jnl" --resume \
  --links "$TMP/links_resumed.csv" | tee "$TMP/resumed.out"
diff "$TMP/links_ref.csv" "$TMP/links_resumed.csv" \
  || { echo "FAIL: resumed links differ from the uninterrupted run"; exit 1; }

echo "== tcp fleet: same stream across spawned hprl_party daemons =="
cp -r "$TMP/demo" "$TMP/demo_tcp"
sed -i 's/^keybits .*/keybits 256/' "$TMP/demo_tcp/linkage.spec"
"./$BUILD/tools/hprl_link" --spec "$TMP/demo_tcp/linkage.spec" --serve \
  --deltas "$TMP/deltas.csv" --links "$TMP/links_tcp.csv" \
  --transport tcp --party_bin "./$BUILD/tools/hprl_party" \
  | tee "$TMP/tcp.out"
diff "$TMP/links_ref.csv" "$TMP/links_tcp.csv" \
  || { echo "FAIL: tcp-fleet links differ from the in-process run"; exit 1; }

CHECK="$CHECK" python3 - "$TMP" <<'EOF'
import json, os, re, statistics, sys

tmp = sys.argv[1]
check = os.environ.get("CHECK") == "1"

def parse(fields):
    out = {}
    for kv in fields.split():
        k, v = kv.split("=", 1)
        out[k] = float(v) if "." in v else int(v)
    return out

def summary(path):
    line = open(os.path.join(tmp, path)).read()
    m = re.search(r"^HPRL_SERVE summary: (.*)$", line, re.M)
    assert m, f"no summary line in {path}"
    return parse(m.group(1))

ref = summary("ref.out")
resumed = summary("resumed.out")
tcp = summary("tcp.out")

# Accounting: zero lost or duplicated verdicts across the crash. The resumed
# incarnation replays the journaled prefix (replayed_smc resolved from the
# journal, no SMC spend) and settles the rest live; the totals must line up
# with the uninterrupted run exactly.
assert ref["deltas"] == 1000 and ref["replayed"] == 0, ref
assert resumed["deltas"] == 1000 and resumed["replayed"] == 300, resumed
assert resumed["replayed"] + resumed["applied"] + resumed["queued"] \
    + resumed["rejected"] == 1000, resumed
assert resumed["replayed_smc"] + resumed["smc_pairs"] == ref["smc_pairs"], \
    (resumed, ref)
assert resumed["links"] == ref["links"] and tcp["links"] == ref["links"]
assert tcp["smc_pairs"] == ref["smc_pairs"], (tcp, ref)
assert resumed["epoch"] == 2, resumed
print(f"serve accounting OK: {ref['links']} links, {ref['smc_pairs']} SMC "
      f"pairs, crash replay {resumed['replayed']}+{resumed['applied']} "
      f"lost nothing, fenced epoch {resumed['epoch']}")

# Timing: the medians over the 21 uninterrupted runs of the stream.
reps = [parse(m.group(1)) for m in re.finditer(
    r"^HPRL_SERVE summary: (.*)$",
    open(os.path.join(tmp, "timing.summaries")).read(), re.M)]
assert len(reps) == 21, len(reps)
block = {
    "deltas": ref["deltas"],
    "links": ref["links"],
    "smc_pairs": ref["smc_pairs"],
    "timed_runs": len(reps),
    "sustained_pairs_per_sec": statistics.median(
        r["pairs_per_sec"] for r in reps),
    "p99_delta_seconds": statistics.median(
        r["p99_delta_seconds"] for r in reps),
}

if check:
    committed = json.load(open("BENCH_hotpath.json")).get("streaming")
    assert committed, "no committed streaming block in BENCH_hotpath.json"
    pps, c_pps = block["sustained_pairs_per_sec"], \
        committed["sustained_pairs_per_sec"]
    p99, c_p99 = block["p99_delta_seconds"], committed["p99_delta_seconds"]
    failures = []
    if pps < 0.8 * c_pps:
        failures.append(f"pairs/sec {pps:.0f} < 80% of committed {c_pps:.0f}")
    if p99 > 1.25 * c_p99:
        failures.append(f"p99 {p99:.6f}s > 125% of committed {c_p99:.6f}s")
    if failures:
        print("STREAMING BENCH CHECK FAILED:", *failures, sep="\n  ")
        sys.exit(1)
    print(f"streaming check OK: {pps:.0f} pairs/s (committed {c_pps:.0f}), "
          f"p99 {p99:.6f}s (committed {c_p99:.6f}s)")
else:
    # Merge, preserving every block this script does not produce.
    doc = json.load(open("BENCH_hotpath.json"))
    doc["streaming"] = block
    with open("BENCH_hotpath.json", "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(json.dumps({"streaming": block}, indent=2))
EOF

if [[ "$CHECK" == "1" ]]; then
  echo "== serve smoke OK (BENCH_hotpath.json unchanged) =="
else
  echo "== serve smoke OK: streaming block written to BENCH_hotpath.json =="
fi
