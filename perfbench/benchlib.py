"""Pure helpers of the linkage benchmark: percentiles, failure counting,
reference-link comparison, open-loop timing and spec edits.

Nothing here starts a process or reads the clock, so test_benchlib.py can
check every rule on synthetic inputs.
"""

import hashlib
import math
import statistics

# Percentiles a tail may be reported at, lowest first. The ladder stops at
# p99: deeper tails of sub-millisecond batches on a shared 4-core box time
# the kernel's scheduler, not the program (p99.99 of a plaintext drain's
# batches spread 62 % across seeds).
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 99.0)
# A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(p, n):
    """1-based rank of percentile `p` among `n` samples. The epsilon keeps
    float noise (0.999 * 10000 = 9990.000000000002) from adding a rank."""
    return min(n, max(1, math.ceil(p * n / 100.0 - 1e-9)))


def percentile(samples, p):
    """Nearest-rank percentile `p` (0 < p <= 100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    return sorted(samples)[nearest_rank(p, len(samples)) - 1]


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND of `n` samples
    beyond its nearest rank; the median when no ladder step qualifies."""
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if n - nearest_rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def latency_summary(samples):
    """(p50, tail percentile, tail value, sample count) of `samples`."""
    p = tail_percentile(len(samples))
    return percentile(samples, 50.0), p, percentile(samples, p), len(samples)


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def links_match(reference_path, candidate_path):
    """True when the candidate links file is byte-identical to the
    reference."""
    return file_digest(reference_path) == file_digest(candidate_path)


def count_failures(reps):
    """Sums attempted and failed operations over a run's repetitions.

    Each rep is a dict with `attempted` (SMC pairs or deltas it was meant to
    settle), `quarantined`, `rejected`, `exit_code` and `links_ok`. A rep that
    exited non-zero or wrote links that differ from the reference counts as
    wholly failed; otherwise its quarantined pairs and rejected deltas fail.
    """
    attempted = failed = 0
    for rep in reps:
        attempted += rep["attempted"]
        if rep["exit_code"] != 0 or not rep["links_ok"]:
            failed += rep["attempted"]
        else:
            failed += rep.get("quarantined", 0) + rep.get("rejected", 0)
    return attempted, failed


def open_loop(due, sent, done):
    """Per-delta timing of an open-loop run.

    Latency runs from the time a delta was due, not from when the generator
    got round to sending it, so a stall also charges every delta queued
    behind it. Returns (latency_ms, late_ms, backlog), where backlog[i] is
    how many later deltas were already due when delta i was sent.
    """
    if not (len(due) == len(sent) == len(done)):
        raise ValueError("due/sent/done differ in length")
    latency = [(d - u) * 1e3 for u, d in zip(due, done)]
    late = [(s - u) * 1e3 for u, s in zip(due, sent)]
    backlog = []
    j = 0
    for i, s in enumerate(sent):
        j = max(j, i + 1)
        while j < len(due) and due[j] <= s:
            j += 1
        backlog.append(j - i - 1)
    return latency, late, backlog


def edit_spec(text, settings):
    """Returns the spec `text` with each `key value` directive of `settings`
    replaced in place (comments dropped from that line) or appended."""
    lines = text.splitlines()
    done = set()
    for i, line in enumerate(lines):
        tokens = line.split()
        if tokens and tokens[0] in settings:
            key = tokens[0]
            lines[i] = f"{key} {settings[key]}"
            done.add(key)
    for key, value in settings.items():
        if key not in done:
            lines.append(f"{key} {value}")
    return "\n".join(lines) + "\n"


def spread(values):
    """Inter-quartile range over the median, as the acceptance check takes
    it from statistics.quantiles(values, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
