#!/usr/bin/env python3
"""End-to-end benchmark of hybrid private record linkage.

    python3 perfbench/run.py --workload smc_inproc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. The first run builds the program from source
into .bench_build/ (CMake, Release). Inputs come from the shipped hprl_gen
and churn: --seed fixes a set of datasets, each generated at its own seed
derived from it; each run repeats its workload, cycling through the set,
until --seconds have passed, checks every repetition's links byte for byte
against a `keybits 0` reference run of the shipped hprl_link on the same
dataset, and prints one JSON object as the last line of stdout. --trace 0
reports the end-to-end metrics; --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics. --workload all runs every
workload and exits non-zero when any of them fails. See perfbench/README.md
for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

BUILD_TARGETS = ["perfbench_driver", "hprl_gen", "hprl_link", "hprl_party",
                 "churn"]
# One core short of the machine: the randomizer filler and the session
# thread need the last one. At nproc workers a 4-core box is oversubscribed
# and smc_inproc's repetitions spread three times wider (2.1-3.4 s against
# 2.2-2.5 s at 3 workers, same inputs), with no faster median.
SMC_WORKERS = max(1, min(4, (os.cpu_count() or 1) - 1))
# A serve repetition applies SERVE_WARMUP deltas back to back, so that the
# tenants hold live rows, then offers SERVE_TIMED more at SERVE_RATE/s and
# times those. Without the warm-up the timed deltas meet near-empty tables
# and their latencies split between ~0 and one pair's cost, so the median
# jumped 1.0-1.8 ms across seeds. At 100/s a 2,250-delta stream saturated on
# two seeds of four (latency growing to seconds); at 40/s after 600 warm-up
# deltas the service is ~30 % busy. 150 timed deltas keep a repetition near
# 5.5 s, so a run covers five datasets; at 400 (12 s) it covered two, and
# pairs/s still sat 15 % apart between seeds in every repeat.
SERVE_RATE = 40.0
SERVE_WARMUP = 600
SERVE_TIMED = 150
REP_TIMEOUT_S = 120
# Set-up-only repetitions per run, besides the set-up of every full one.
SETUP_REPS = 5

# Each workload: the hprl_gen size, the spec directives the benchmark sets
# (besides keybits, which the reference run forces to 0), the driver mode
# and how many datasets one run cycles through. Sizes keep one repetition
# short, so a run of --seconds takes the median of many: a shared 4-vCPU VM
# slows by up to 2.5x in bursts of seconds (a fixed spin loop ran
# 0.19-0.58 s), and only a median over many repetitions rejects them.
#
# The data themselves move the timings too, so a run does not rest on one
# generated dataset. On smc_inproc, seed 13's values make Bob's packed
# ScalarMul exponents longer (fold 4.9 against 3.3 ms per pair at seed 12):
# its pairs/s sat 20 % under the other seeds' at 1,024 and at 4,096 pairs
# alike, in every repeat. A run therefore generates `datasets` inputs, at
# seeds derived from --seed, and its medians pool repetitions over all of
# them.
#
# There is no plaintext workload (the paper's evaluation mode, keybits 0).
# Its drain streams millions of pairs through memory, and on a shared VM
# its repetitions swung 0.44-0.83 s within one run, following the host's
# phases rather than the data. With one dataset per run its timings spread
# 0.2-0.35 over ten seeds; with six, 0.22-0.24 over five: at the 0.25
# bound either way.
WORKLOADS = {
    # Packed Paillier exchange on N in-process workers.
    "smc_inproc": dict(rows=6000, mode="link", tcp=False, datasets=8,
                       spec={"keybits": 1024, "allowance": 0.000064,
                             "smc_pack": "8 64",
                             "smc_threads": SMC_WORKERS}),
    # The same protocol through three hprl_party daemons over loopback TCP.
    # Sixteen RPC batches in flight rather than the spec's four keep every
    # daemon fed, so the run waits on the slowest party rather than on
    # wake-ups: over four seeds run alternately, pairs/s spread 0.09 at
    # window 16 against 0.17 at 4, with a 7 % higher median.
    "smc_tcp": dict(rows=6000, mode="link", tcp=True, datasets=8,
                    spec={"keybits": 1024, "allowance": 0.000032,
                          "rpc_window": 16}),
    # Open-loop delta stream through the incremental service. One
    # comparator: batches of ~5 pairs gain nothing from more, and each extra
    # worker adds a thread wake-up per batch that a shared VM stretches
    # (p50 3.0-3.8 ms at 1 worker against 3.2-6.6 ms at 3, same seeds).
    "serve_churn": dict(rows=400, mode="serve", tcp=False, datasets=5,
                        spec={"keybits": 1024, "smc_threads": 1}),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def run_checked(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited "
                         f"{proc.returncode}:\n{proc.stdout[-4000:]}")
    return proc.stdout


def build(root):
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        raise BenchError(f"{root} holds no program sources to build")
    bdir = root / ".bench_build" / "cmake"
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_checked(["cmake", "-S", str(root / "perfbench"), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release"] + gen)
    run_checked(["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 1),
                 "--target"] + BUILD_TARGETS)
    return {
        "driver": bdir / "perfbench_driver",
        "hprl_gen": bdir / "hprl" / "tools" / "hprl_gen",
        "hprl_link": bdir / "hprl" / "tools" / "hprl_link",
        "hprl_party": bdir / "hprl" / "tools" / "hprl_party",
        "churn": bdir / "hprl" / "bench" / "churn",
    }


def smc_seed(seed):
    return 1 + seed % 2_000_000_000


def dataset_seed(seed, index):
    """Generator seed of dataset `index` of a run at `seed`: distinct for
    every (seed, index) with index < 1000."""
    return seed * 1000 + index


def prepare_inputs(bins, wl, seed, work):
    """Generates one dataset's inputs into `work` and its spec pair
    (measured and `keybits 0` reference). Returns the driver's input
    arguments."""
    data = work / "data"
    run_checked([bins["hprl_gen"], "--out", data, "--rows", str(wl["rows"]),
                 "--seed", str(seed)])
    base = (data / "linkage.spec").read_text()
    settings = dict(wl["spec"])
    if settings.get("keybits", 0) > 0:
        settings["smc_seed"] = smc_seed(seed)
    (data / "bench.spec").write_text(benchlib.edit_spec(base, settings))
    settings["keybits"] = 0
    (data / "reference.spec").write_text(benchlib.edit_spec(base, settings))
    if wl["mode"] == "serve":
        run_checked([bins["churn"], "--out", work / "deltas.csv", "--deltas",
                     str(SERVE_WARMUP + SERVE_TIMED), "--tenants", "2",
                     "--seed", str(seed)])
        return ["--deltas", str(work / "deltas.csv"), "--rate", str(SERVE_RATE),
                "--warmup", str(SERVE_WARMUP)]
    return ["--r", str(data / "r.csv"), "--s", str(data / "s.csv")]


def reference_run(bins, wl, work, inputs):
    """Links of the shipped hprl_link with the exact plaintext oracle, and
    how many SMC pairs (or deltas) a repetition is meant to settle."""
    ref = work / "reference.csv"
    cmd = [bins["hprl_link"], "--spec", work / "data" / "reference.spec",
           "--links", ref]
    if wl["mode"] == "serve":
        out = run_checked(cmd + ["--serve", "--deltas", inputs[1]])
        units = int(out.split("deltas=")[1].split()[0])
    else:
        out = run_checked(cmd + ["--r", inputs[1], "--s", inputs[3]])
        units = int(out.split("oracle): ")[1].split()[0])
    return ref, units


def free_ports(n):
    socks = [socket.socket() for _ in range(n)]
    try:
        for s in socks:
            s.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def reap(proc, deadline):
    """Waits for `proc` until `deadline` (monotonic), killing it after.
    Returns (exit code, rusage)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return (proc.returncode or -9), usage
        time.sleep(0.005)


def prepare_dataset(bins, wl, seed, work):
    """Inputs and reference links of one dataset, in its own directory."""
    work.mkdir(parents=True)
    inputs = prepare_inputs(bins, wl, seed, work)
    reference, units = reference_run(bins, wl, work, inputs)
    return {"spec": work / "data" / "bench.spec", "inputs": inputs,
            "reference": reference, "units": units}


def run_rep(bins, wl, work, dataset, rep, trace, setup_only=False):
    """One repetition on `dataset`: optional daemons, then the driver.
    Returns the driver's JSON plus per-process CPU seconds and peak RSS."""
    out = work / f"rep{rep}.json"
    report = work / f"rep{rep}.report.json"
    links = work / f"rep{rep}.links.csv"
    cmd = [bins["driver"], "--mode", wl["mode"], "--spec", dataset["spec"],
           "--links", links, "--out", out] + dataset["inputs"]
    if trace:
        cmd += ["--trace", "--report_out", report]
    if setup_only:
        cmd.append("--setup_only")
    daemons = {}
    t0 = time.monotonic()
    try:
        if wl["tcp"]:
            ports = dict(zip(("alice", "bob", "qp"), free_ports(3)))
            addr = {r: f"127.0.0.1:{p}" for r, p in ports.items()}
            for role in ("alice", "bob", "qp"):
                daemons[role] = subprocess.Popen(
                    [bins["hprl_party"], "--role", role, "--alice",
                     addr["alice"], "--bob", addr["bob"], "--qp", addr["qp"],
                     "--metrics_out", work / f"rep{rep}.{role}.json"],
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            cmd += ["--parties",
                    ",".join(addr[r] for r in ("alice", "bob", "qp"))]
        driver = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE)
        code, usage = reap(driver, t0 + REP_TIMEOUT_S)
        err = driver.stderr.read().decode(errors="replace")
        driver.stderr.close()
        cpu = {"coord": usage.ru_utime + usage.ru_stime}
        rss_kb = usage.ru_maxrss
        for role, proc in daemons.items():
            dcode, dusage = reap(proc, time.monotonic() + 15)
            cpu[role] = dusage.ru_utime + dusage.ru_stime
            rss_kb += dusage.ru_maxrss
            if code == 0 and dcode != 0:
                code, err = dcode, f"hprl_party {role} exited {dcode}"
    finally:
        for proc in daemons.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result = {"exit_code": code, "stderr": err, "t0": t0, "cpu": cpu,
              "peak_rss_mb": rss_kb / 1024.0, "links": links}
    if code == 0:
        result["run"] = json.loads(out.read_text())
        if trace:
            result["report"] = json.loads(report.read_text())
            result["parties"] = {
                role: json.loads((work / f"rep{rep}.{role}.json").read_text())
                for role in daemons}
    return result


def setup_seconds(rep):
    """Launch until the first pair reaches the oracle, or until the service
    is ready for its first delta."""
    run = rep["run"]
    ready = run["t_ready"] if run["mode"] == "serve" else run["t_first_pair"]
    return ready - rep["t0"]


def end_to_end(rep):
    """The end-to-end numbers of one successful repetition, with its latency
    samples in ms."""
    run, t0 = rep["run"], rep["t0"]
    m = {"run_s": run["t_done"] - t0, "peak_rss_mb": rep["peak_rss_mb"],
         "setup_s": setup_seconds(rep)}
    if run["mode"] == "serve":
        latency, _, _ = benchlib.open_loop(run["due"], run["sent"], run["done"])
        m["pairs"] = sum(run["delta_smc_pairs"])
        m["online_s"] = sum(d - s for s, d in zip(run["sent"], run["done"]))
    else:
        m["pairs"] = run["smc_pairs"]
        m["online_s"] = run["t_online_end"] - run["t_first_pair"]
        latency = [s * 1e3 for s in run["batch_s"]]
    m["pairs_per_s"] = m["pairs"] / m["online_s"]
    m["latency"] = latency
    return m


def layer_metrics(rep, wl):
    """Per-layer numbers of one traced repetition (0 where a layer takes no
    part in the workload)."""
    run, report = rep["run"], rep["report"]
    spans = {s["name"]: s["end"] - s["start"] for s in run["spans"]}
    reg_spans = report.get("spans", {})
    counters = report.get("counters", {})
    hist = report.get("histograms", {})
    parties = rep.get("parties", {})

    def total(name):
        return counters.get(name, 0) + sum(
            p.get("counters", {}).get(name, 0) for p in parties.values())

    pairs = run["smc_pairs"]
    per_pair = (lambda v: v / pairs) if pairs else (lambda v: 0.0)
    serve = run["mode"] == "serve"
    smc = wl["spec"].get("keybits", 0) > 0
    tcp = run["tcp"]
    workers = run["smc_workers"]
    busy = run["oracle_busy_s"]
    if serve:
        # The oracle counters also cover the warm-up deltas.
        online = spans.get("serve.warmup", 0.0) + sum(
            d - s for s, d in zip(run["sent"], run["done"]))
    else:
        online = run["t_online_end"] - run["t_first_pair"]
    wall = run["t_done"] - rep["t0"]

    m = {}
    m["data.load_s"] = spans.get("data.load", 0.0)
    m["anon.anonymize_s"] = spans.get("anon.anonymize", 0.0)
    m["anon.sequences"] = run["sequences"]
    m["core.block_s"] = reg_spans.get("linkage/block", {}).get("seconds", 0.0)
    m["core.select_s"] = reg_spans.get("linkage/select", {}).get("seconds", 0.0)
    m["core.unknown_pairs"] = run["unknown_pairs"]
    hits = counters.get("blocking.slack_cache_hits", 0)
    misses = counters.get("blocking.slack_cache_misses", 0)
    m["core.slack_cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    smc_span = reg_spans.get("linkage/smc", {}).get("seconds", 0.0)
    m["core.drain_self_s"] = smc_span - busy if smc_span else 0.0

    m["linkage.oracle_busy_s"] = busy
    if run["batch_s"]:
        p50, _, tail, _ = benchlib.latency_summary(run["batch_s"])
        m["linkage.batch_p50_ms"] = p50 * 1e3
        m["linkage.batch_tail_ms"] = tail * 1e3
        m["linkage.pairs_per_batch"] = (sum(run["batch_pairs"])
                                        / len(run["batch_pairs"]))
    else:
        m["linkage.batch_p50_ms"] = m["linkage.batch_tail_ms"] = 0.0
        m["linkage.pairs_per_batch"] = 0.0

    m["crypto.init_s"] = spans.get("crypto.init", 0.0)
    m["crypto.enc_per_pair"] = per_pair(total("paillier.encryptions"))
    m["crypto.dec_per_pair"] = per_pair(total("paillier.decryptions"))
    m["crypto.mul_per_pair"] = per_pair(total("paillier.scalar_muls"))
    m["crypto.add_per_pair"] = per_pair(total("paillier.homomorphic_adds"))
    replay = run.get("replay")
    for key in ("encrypt_ms", "decrypt_ms", "scalar_mul_ms"):
        m["crypto." + key] = replay[key] if replay else 0.0
    enc = total("paillier.encryptions")
    m["crypto.pool_hit_rate"] = (total("paillier.randomizer_pool_hits") / enc
                                 if enc else 0.0)

    if replay and replay["pairs"]:
        n = replay["pairs"]
        m["smc.alice_encrypt_ms"] = replay["alice_s"] / n * 1e3
        m["smc.bob_fold_ms"] = replay["bob_s"] / n * 1e3
        m["smc.qp_decrypt_ms"] = replay["qp_s"] / n * 1e3
        party_s = (replay["alice_s"] + replay["bob_s"] + replay["qp_s"]) / n
        m["smc.replay_coverage"] = party_s * pairs / (busy * workers)
    else:
        for key in ("alice_encrypt_ms", "bob_fold_ms", "qp_decrypt_ms",
                    "replay_coverage"):
            m["smc." + key] = 0.0
    # Over TCP only the querying party's decryptions count the attributes
    # compared (one per attribute in the scalar exchange).
    attr_cmp = counters.get("smc.attr_comparisons", 0)
    if tcp:
        attr_cmp = parties.get("qp", {}).get("counters", {}).get(
            "paillier.decryptions", 0)
    m["smc.attr_cmp_per_pair"] = per_pair(attr_cmp)
    groups = counters.get("smc.packed_groups", 0)
    m["smc.pairs_per_group"] = pairs / groups if groups else (1.0 if smc else 0.0)
    m["smc.bytes_per_pair"] = per_pair(total("smc.bytes_sent"))
    compare_s = hist.get("smc.compare_seconds", {}).get("sum", 0.0)
    m["smc.worker_util"] = (compare_s / (online * workers)
                            if compare_s and online > 0 else 0.0)
    m["smc.retries"] = total("smc.retries")
    m["smc.quarantined"] = run["quarantined"]

    net_setup = spans.get("net.create", 0.0) + spans.get("net.init", 0.0)
    m["net.setup_s"] = net_setup
    m["net.wire_bytes_per_pair"] = per_pair(run["wire_bytes_sent"])
    m["net.round_trips_per_pair"] = per_pair(counters.get("net.ctl_round_trips", 0))
    for role in ("alice", "bob", "qp", "coord"):
        m["net.cpu_s." + role] = rep["cpu"].get(role, 0.0)

    if serve:
        latency, late, backlog = benchlib.open_loop(run["due"], run["sent"],
                                                    run["done"])
        m["serve.apply_self_s"] = sum(
            d - s for s, d in zip(run["sent"], run["done"])) - sum(
                run["delta_oracle_s"])
        m["serve.smc_pairs_per_delta"] = pairs / run["deltas"]
        m["serve.backlog_max"] = max(backlog)
        m["serve.late_p99_ms"] = benchlib.percentile(late, 99.0)
    else:
        for key in ("apply_self_s", "smc_pairs_per_delta", "backlog_max",
                    "late_p99_ms"):
            m["serve." + key] = 0.0

    m["proc.cpu_util"] = sum(rep["cpu"].values()) / (wall * (os.cpu_count() or 1))
    return m


def run_workload(bins, name, seed, seconds, trace, root):
    wl = WORKLOADS[name]
    work = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_start = time.monotonic()
        datasets = [prepare_dataset(bins, wl, dataset_seed(seed, i),
                                    work / f"set{i}")
                    for i in range(wl["datasets"])]
        log(f"{name}: {len(datasets)} datasets and references in "
            f"{time.monotonic() - setup_start:.2f}s, "
            f"{[d['units'] for d in datasets]} "
            f"{'deltas' if wl['mode'] == 'serve' else 'SMC pairs'} per rep")

        start = time.monotonic()
        setups = []
        for i in range(SETUP_REPS):
            dataset = datasets[i % len(datasets)]
            rep = run_rep(bins, wl, work, dataset, f"setup{i}", False,
                          setup_only=True)
            if rep["exit_code"] != 0:
                log(f"{name}: set-up run failed: {rep['stderr'][-2000:]}")
                return {"correct": False, "attempted": dataset["units"],
                        "failed": dataset["units"], "metrics": {}}
            setups.append(setup_seconds(rep))

        reps = []
        while True:
            # Traced and untraced repetitions alternate; each pair of them
            # shares a dataset, so the trace overhead compares like inputs.
            traced = trace and len(reps) % 2 == 1
            dataset = datasets[(len(reps) // (2 if trace else 1))
                               % len(datasets)]
            rep = run_rep(bins, wl, work, dataset, len(reps), traced)
            rep["traced"] = traced
            rep["links_ok"] = (rep["exit_code"] == 0
                               and benchlib.links_match(dataset["reference"],
                                                        rep["links"]))
            rep["attempted"] = dataset["units"]
            if rep["exit_code"] == 0:
                rep["quarantined"] = rep["run"]["quarantined"]
                rep["rejected"] = rep["run"].get("rejected", 0)
            else:
                log(f"{name}: rep {len(reps)} failed: {rep['stderr'][-2000:]}")
            for f in work.glob(f"rep{len(reps)}.*"):
                if f.suffix == ".csv":
                    f.unlink()
            reps.append(rep)
            if rep["exit_code"] != 0 or not rep["links_ok"]:
                break
            m = end_to_end(rep)
            log(f"{name}: rep {len(reps) - 1}{' traced' if traced else ''}: "
                f"run {m['run_s']:.3f}s, set-up {m['setup_s']:.3f}s, "
                f"{m['pairs_per_s']:.1f} pairs/s")
            elapsed = time.monotonic() - start
            if trace:
                # A traced run ends only after whole cycles, one untraced and
                # one traced repetition per dataset, so its medians and
                # counts weigh every dataset alike, however fast the host.
                cycle = 2 * len(datasets)
                if len(reps) % cycle == 0 and (
                        elapsed * (len(reps) + cycle) / len(reps) > seconds
                        or len(reps) >= 200):
                    break
            elif ((len(reps) >= 3 and elapsed * (len(reps) + 1) / len(reps)
                   > seconds) or len(reps) >= 200):
                break

        attempted, failed = benchlib.count_failures(reps)
        correct = all(r["exit_code"] == 0 and r["links_ok"] for r in reps)
        result = {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": {}}
        if not correct:
            return result

        untraced = [r for r in reps if not r["traced"]]
        e2e = [end_to_end(r) for r in untraced]

        def median_of(key):
            return statistics.median([m[key] for m in e2e])

        if not trace:
            # Latency samples are pooled over the run: 2-4 batches per SMC
            # drain repetition, and on serve_churn a handful of
            # repetitions, each on its own dataset, whose deltas also give
            # pairs/s as a pooled ratio rather than a median of five.
            p50, tail_p, tail, n = benchlib.latency_summary(
                [x for m in e2e for x in m["latency"]])
            if wl["mode"] == "serve":
                pairs_per_s = (sum(m["pairs"] for m in e2e)
                               / sum(m["online_s"] for m in e2e))
            else:
                pairs_per_s = median_of("pairs_per_s")
            metrics = {
                "run_s": (median_of("run_s"), "s"),
                "setup_s": (statistics.median(
                    setups + [m["setup_s"] for m in e2e]), "s"),
                "pairs_per_s": (pairs_per_s, "pairs/s"),
                "lat_p50_ms": (p50, "ms"),
                "peak_rss_mb": (median_of("peak_rss_mb"), "MB"),
            }
            # The tail is logged, not reported: over five seeds the p99 of
            # delta latency ranged 24-72 ms, past any bound the benchmark
            # may set. The traced run reports it per layer
            # (linkage.batch_tail_ms, serve.delta_p99_ms).
            log(f"{name}: {len(reps)} reps; latency p{tail_p:g} {tail:.6g} ms"
                f" of {n} samples; "
                f"fail_frac {failed / attempted:.6f}")
        else:
            traced_reps = [r for r in reps if r["traced"]]
            per_rep = [layer_metrics(r, wl) for r in traced_reps]
            metrics = {k: (statistics.median([m[k] for m in per_rep]),
                           LAYER_UNITS[k]) for k in per_rep[0]}
            # One repetition's 150 deltas reach p90 at most (ten samples
            # beyond it); the traced repetitions' deltas are pooled, and
            # the tail is the highest percentile they support (p99 from
            # 1,000 deltas on).
            delta_tail = 0.0
            if wl["mode"] == "serve":
                pooled = []
                for r in traced_reps:
                    pooled += benchlib.open_loop(r["run"]["due"],
                                                 r["run"]["sent"],
                                                 r["run"]["done"])[0]
                delta_tail = benchlib.latency_summary(pooled)[2]
            metrics["serve.delta_p99_ms"] = (delta_tail, "ms")
            traced_run = statistics.median(
                [end_to_end(r)["run_s"] for r in traced_reps])
            metrics["obs.trace_overhead_frac"] = (
                traced_run / median_of("run_s") - 1.0, "ratio")
            metrics["fail_frac"] = (failed / attempted, "ratio")
            log(f"{name}: {len(untraced)} untraced + {len(traced_reps)} "
                f"traced reps")
        for key, (value, unit) in metrics.items():
            log(f"  {key:28s} {value:14.6f} {unit}")
        result["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in metrics.items()}
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


LAYER_UNITS = {
    "data.load_s": "s", "anon.anonymize_s": "s", "anon.sequences": "count",
    "core.block_s": "s", "core.select_s": "s", "core.unknown_pairs": "count",
    "core.slack_cache_hit_rate": "ratio", "core.drain_self_s": "s",
    "linkage.oracle_busy_s": "s", "linkage.batch_p50_ms": "ms",
    "linkage.batch_tail_ms": "ms", "linkage.pairs_per_batch": "pairs",
    "crypto.init_s": "s", "crypto.enc_per_pair": "ops/pair",
    "crypto.dec_per_pair": "ops/pair", "crypto.mul_per_pair": "ops/pair",
    "crypto.add_per_pair": "ops/pair", "crypto.encrypt_ms": "ms",
    "crypto.decrypt_ms": "ms", "crypto.scalar_mul_ms": "ms",
    "crypto.pool_hit_rate": "ratio", "smc.alice_encrypt_ms": "ms",
    "smc.bob_fold_ms": "ms", "smc.qp_decrypt_ms": "ms",
    "smc.replay_coverage": "ratio", "smc.attr_cmp_per_pair": "count/pair",
    "smc.pairs_per_group": "pairs", "smc.bytes_per_pair": "B/pair",
    "smc.worker_util": "ratio", "smc.retries": "count",
    "smc.quarantined": "count", "net.setup_s": "s",
    "net.wire_bytes_per_pair": "B/pair", "net.round_trips_per_pair": "1/pair",
    "net.cpu_s.alice": "s", "net.cpu_s.bob": "s", "net.cpu_s.qp": "s",
    "net.cpu_s.coord": "s", "serve.apply_self_s": "s",
    "serve.smc_pairs_per_delta": "pairs", "serve.backlog_max": "count",
    "serve.late_p99_ms": "ms", "serve.delta_p99_ms": "ms",
    "proc.cpu_util": "ratio",
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    try:
        bins = build(root)
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_workload(bins, n, args.seed, args.seconds,
                                   bool(args.trace), root) for n in names}
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
