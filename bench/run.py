"""sigmaprime benchmark: one command, four workloads, drift-corrected timings.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ./src.  All
load comes from this one process, one closed-loop client, jobs=1, with at
most one forked child alive at a time:

* set-up (import plus input generation) is measured in forked children
  that start before sigmaprime is imported, repeated, median reported;
* a batch workload (oracle-sweep, identity-family, counters) runs its
  fixed call list once per round, each round in a child forked from the
  just-imported state, until --seconds have passed;
* point-queries runs each CLI command in its own child forked from the
  just-imported state, so every command pays cold caches as a shell user
  does.

Every call is checked (the first round against independent routes, later
rounds against the first round's exact results) and the digest of all
exact results on the default seed is pinned.  --trace 0 prints the
end-to-end metrics; --trace 1 alternates untraced and traced rounds and
prints the per-layer metrics.  The last stdout line is the JSON result; a
run record with raw times, reference speed and all counts is written under
.bench_runs/.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import select
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import drift
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("oracle-sweep", "identity-family", "counters", "point-queries")
DEFAULT_SEED = 1
SETUP_REPEATS = 7
MIN_ROUNDS = 3  # per kind of round; the trace run needs two kinds
POINT_MIN_SAMPLES = 1100  # so that at least ten samples lie beyond p99
CHILD_TIMEOUT_S = 60.0
HARD_STOP_S = 150.0

# sha256 of every exact result of one round on DEFAULT_SEED
PINNED_SHA256 = {
    "oracle-sweep": "28be01f16119efdb3f7d993bbcdc9168950e3ff7ed2984a2119490418bcb8e33",
    "identity-family": "d346e13d48d833e5d36c60cbe066074d28e5332997e3d7252ab9ce741ea62293",
    "counters": "4e8cb25444c60e8bcecc1a09015be92e878adb9d49d5984c10113229e0567df7",
    "point-queries": "719a244f51fa2d61d7914af3e0115b078b1f5b90c96db3a91b181367f0b7371a",
}


class ChildError(RuntimeError):
    pass


def in_child(fn, timeout: float = CHILD_TIMEOUT_S):
    """Run fn() in a forked child and return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_fd)
            payload = json.dumps({"ok": fn()})
        except BaseException:
            payload = json.dumps({"error": traceback.format_exc()})
            code = 1
        try:
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload.encode())
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + timeout
    timed_out = False
    with os.fdopen(read_fd, "rb") as pipe:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([pipe], [], [], left)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    os.waitpid(pid, 0)
    if timed_out:
        raise ChildError(f"child timed out after {timeout:.0f} s")
    try:
        reply = json.loads(b"".join(chunks))
    except ValueError:
        raise ChildError("child exited without a result") from None
    if "error" in reply:
        raise ChildError(reply["error"])
    return reply["ok"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- set-up ----------------------------------------------------------------


def _setup_once(workload: str, seed: int) -> dict:
    before = drift.reference()
    t0 = time.perf_counter()
    import workloads

    workloads.build(workload, seed)
    raw = time.perf_counter() - t0
    after = drift.reference()
    return {"raw_s": raw, "corrected_s": raw * drift.NOMINAL_REF_S / ((before + after) / 2)}


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Median-ready set-up samples; the first (warm-up) child is dropped."""
    if "sigmaprime" in sys.modules:
        raise RuntimeError("set-up must be measured before sigmaprime is imported")
    samples = [in_child(lambda: _setup_once(workload, seed)) for _ in range(SETUP_REPEATS + 1)]
    return samples[1:]


# --- rounds ------------------------------------------------------------------


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def batch_round(plan, traced: bool, check: bool, spans_path: Path | None) -> dict:
    """One pass over a batch plan; runs inside a forked child."""
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    cache_before = tracing.cache_snapshot()
    clock = drift.DriftClock()
    results, errors = [], {}
    for i, call in enumerate(plan):
        if tracer:
            tracer.request = i
        try:
            results.append(clock.time(call.run))
        except Exception as exc:
            errors[i] = f"{call.label}: raised {exc!r}"
            results.append(None)
    clock.finish()
    summary = clock.summary()
    rss = peak_rss_mb()
    snap = None
    if tracer:
        tracer.enabled = False
        snap = tracer.snapshot()
    cache = tracing.cache_deltas(cache_before, tracing.cache_snapshot())
    digests = []
    for i, (call, res) in enumerate(zip(plan, results)):
        digests.append(_sha(json.dumps(call.values(res))) if i not in errors else "")
        if check and i not in errors:
            message = call.check(res)
            if message:
                errors[i] = message
    if tracer and spans_path:
        tracer.write_spans(spans_path)
    return {
        "clock": summary,
        "call_ms": [t * 1e3 for t in clock.corrected],
        "rss_mb": rss,
        "digests": digests,
        "errors": {str(k): v for k, v in errors.items()},
        "cache": cache,
        "trace": snap,
        "scale": summary["corrected_s"] / summary["raw_s"],
    }


def command_child(cmd, traced: bool, check: bool, request: int, spans_path) -> dict:
    """Time one cli.main(argv) from the just-imported state; runs in a child."""
    import sigmaprime.cli as cli

    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
        tracer.request = request
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        t0 = time.perf_counter()
        code = cli.main(list(cmd.argv))
        raw = time.perf_counter() - t0
    finally:
        sys.stdout, sys.stderr = saved
    rss = peak_rss_mb()
    ref = drift.faulting_reference()
    snap = None
    if tracer:
        tracer.enabled = False
        tracer.extra["cli.stdout_bytes"] += len(out.getvalue().encode())
        snap = tracer.snapshot()
        if spans_path:
            tracer.write_spans(spans_path, append=True)
    text = out.getvalue()
    error = None
    if code != cmd.code:
        error = f"exit {code}, expected {cmd.code}: {err.getvalue().strip()}"
    elif check:
        try:
            error = cmd.check(json.loads(text))
        except Exception as exc:  # a malformed document is a failed check
            error = f"unreadable output: {exc!r}"
    return {"raw_s": raw, "ref_s": ref, "rss_mb": rss, "sha": _sha(text), "error": error, "trace": snap}


def point_round(plan, traced: bool, check: bool, spans_path: Path | None) -> dict:
    """One pass over the commands, each in its own child; runs in the parent."""
    clock = drift.DriftClock(reference=None, nominal=drift.NOMINAL_FORKED_REF_S)
    digests, errors, snaps, rss = [], {}, [], 0.0
    for i, cmd in enumerate(plan):
        try:
            res = in_child(lambda: command_child(cmd, traced, check, i, spans_path))
        except ChildError as exc:
            errors[str(i)] = f"{' '.join(cmd.argv)}: {exc}"
            digests.append("")
            continue
        clock.add(res["raw_s"], res["ref_s"])
        digests.append(res["sha"])
        rss = max(rss, res["rss_mb"])
        if res["error"]:
            errors[str(i)] = f"{' '.join(cmd.argv)}: {res['error']}"
        snaps.append(res["trace"])
    clock.finish()
    snap = None
    if traced:
        # each command's self time is scaled by its own slice's correction
        snap = merge_snapshots(snaps, [c / r for c, r in zip(clock.corrected, clock.raw)])
    return {
        "clock": clock.summary(),
        "call_ms": [t * 1e3 for t in clock.corrected],
        "rss_mb": rss,
        "digests": digests,
        "errors": errors,
        "cache": None,
        "trace": snap,
        "scale": 1.0,
    }


def merge_snapshots(snaps: list[dict], scales: list[float]) -> dict:
    merged = {"calls": {}, "self_ns": {}, "raised": {}, "extra": {}, "cache": {}, "spans": 0}
    for snap, scale in zip(snaps, scales):
        for key in ("calls", "raised", "extra"):
            for name, value in snap[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, value in snap["self_ns"].items():
            merged["self_ns"][name] = merged["self_ns"].get(name, 0) + value * scale
        for name, info in snap["cache"].items():
            acc = merged["cache"].setdefault(name, {"hits": 0, "misses": 0, "entries": 0})
            for field in acc:
                acc[field] += info[field]
        merged["spans"] += snap["spans"]
    return merged


# --- metrics -------------------------------------------------------------------


def percentile(sorted_values: list[float], q: float) -> float:
    """Percentile by linear interpolation between the two nearest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> dict:
    return {"value": num / den if den else 0.0, "num": num, "den": den}


def layer_metrics(snap: dict, scale: float) -> tuple[dict[str, tuple[float, str]], dict]:
    """The per-layer metrics of one traced round (self times corrected), and
    every ratio among them with its numerator and denominator."""
    calls, extra, raised = snap["calls"], snap["extra"], snap["raised"]
    cache = snap["cache"]

    def cached(name, field):
        return cache.get(name, {}).get(field, 0)

    def self_s(prefix):
        total = sum(v for k, v in snap["self_ns"].items() if k == prefix or k.startswith(prefix + "."))
        return total * 1e-9 * scale

    div_hits, div_misses = cached("arith.divisors", "hits"), cached("arith.divisors", "misses")
    memo_hits, memo_misses = cached("lattice.quadruples", "hits"), cached("lattice.quadruples", "misses")
    counts = calls.get("representations.count_fast", 0) + calls.get("representations.count_raw", 0)
    refused = raised.get("representations.count_raw:BudgetExceededError", 0)
    ratios = {
        "arith.divisors.hit_ratio": _ratio(div_hits, div_hits + div_misses),
        "lattice.quadruples.hit_ratio": _ratio(memo_hits, memo_hits + memo_misses),
        "representations.enumerations_per_count": _ratio(
            extra.get("representations.enumerations_in_counts", 0), counts
        ),
        "representations.count_raw.refused_ratio": _ratio(
            refused, calls.get("representations.count_raw", 0)
        ),
    }
    m = {
        f"{name}.self_s": (self_s(name), "s")
        for name in (
            "arith",
            "powersums.coprime_power_sum",
            "powersums",
            "lattice.brute_convolution",
            "lattice.sigma_prime",
            "lattice.check_pre_identity",
            "lattice",
            "identities.main_identity_sides",
            "identities.verify_theorem",
            "representations.count_raw",
            "representations.count_fast",
            "representations",
            "patternfit.fit",
            "patternfit.validate",
            "patternfit",
            "cli",
        )
    }
    for name in (
        "arith.sigma_k",
        "powersums.ClosedForm.evaluate",
        "lattice.brute_convolution",
        "lattice.enumerate_quadruples",
        "identities.symmetry_holds",
        "cli.main",
    ):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in ("arith.factorize", "arith.divisors", "powersums.psi"):
        m[f"{name}.misses"] = (cached(name, "misses"), "count")
    for name in (
        "lattice.enumerate_quadruples.quads",
        "lattice.quadruples.cached_quads",
        "identities.Poly4.call.calls",
        "patternfit.oracle_calls",
    ):
        m[name] = (extra.get(name, 0), "count")
    m["cli.stdout_bytes"] = (extra.get("cli.stdout_bytes", 0), "bytes")
    m.update({name: (ratio["value"], "ratio") for name, ratio in ratios.items()})
    return m, ratios


def count_signature(snap: dict) -> str:
    """Everything in a snapshot that must repeat exactly between traced rounds."""
    return json.dumps({k: snap[k] for k in ("calls", "raised", "extra", "cache")}, sort_keys=True)


# --- one run -----------------------------------------------------------------


def run(args) -> tuple[dict, dict]:
    started = time.perf_counter()
    setup = measure_setup(args.workload, args.seed)
    import sigmaprime
    import workloads

    if Path(sigmaprime.__file__).resolve().parent != (SRC / "sigmaprime").resolve():
        raise RuntimeError(f"imported sigmaprime from {sigmaprime.__file__}, not from {SRC}")
    plan = workloads.build(args.workload, args.seed)
    point = args.workload == "point-queries"
    round_fn = point_round if point else batch_round
    RUNS.mkdir(exist_ok=True)
    # one spans file per workload, replaced by each traced run
    spans_path = RUNS / f"{args.workload}.spans.jsonl.gz"
    if args.trace and spans_path.exists():
        spans_path.unlink()
    kinds = [False, True] if args.trace else [False]
    rounds: list[dict] = []
    first_digests: list[str] | None = None
    attempted = failed = 0
    errors: list[str] = []

    def enough() -> bool:
        elapsed = time.perf_counter() - started
        if elapsed > HARD_STOP_S:
            return True
        per_kind = [sum(1 for r in rounds if r["traced"] == k) for k in kinds]
        samples = sum(len(r["call_ms"]) for r in rounds if not r["traced"])
        return (
            elapsed >= args.seconds
            and min(per_kind) >= MIN_ROUNDS
            and (not point or args.trace or samples >= POINT_MIN_SAMPLES)
        )

    while not enough():
        traced = kinds[len(rounds) % len(kinds)]
        first_traced = traced and not any(r["traced"] for r in rounds)
        check = not rounds
        path = spans_path if first_traced else None
        if point:
            res = round_fn(plan, traced, check, path)
        else:
            try:
                res = in_child(lambda: round_fn(plan, traced, check, path))
            except ChildError as exc:
                attempted += len(plan)
                failed += len(plan)
                errors.append(f"round {len(rounds)} failed: {exc}")
                break
        res["traced"] = traced
        attempted += len(plan)
        bad = set(res["errors"])
        if first_digests is None:
            first_digests = res["digests"]
        else:
            changed = [i for i, (a, b) in enumerate(zip(first_digests, res["digests"])) if a != b]
            bad |= {str(i) for i in changed}
            errors += [f"round {len(rounds)}: call {i} differs from round 0" for i in changed]
        failed += len(bad)
        errors += [f"round {len(rounds)}: {msg}" for msg in res["errors"].values()]
        rounds.append(res)

    digest = hashlib.sha256("".join(first_digests or []).encode()).hexdigest()
    pinned = PINNED_SHA256.get(args.workload) if args.seed == DEFAULT_SEED else None
    if pinned is not None and digest != pinned:
        errors.append(f"digest {digest} differs from the pinned {pinned}")
    untraced = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    if traced_rounds:
        signatures = {count_signature(r["trace"]) for r in traced_rounds}
        if len(signatures) != 1:
            errors.append("count metrics differ between traced rounds of one seed")
    correct = failed == 0 and not errors

    setup_s = statistics.median(s["corrected_s"] for s in setup)
    job = [r["clock"]["corrected_s"] for r in untraced]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "nominal_ref_ms": drift.NOMINAL_REF_S * 1e3,
        "calls_per_round": len(plan),
        "digest_sha256": digest,
        "pinned_sha256": pinned,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:50],
        "setup": setup,
        "rounds": [
            {
                "traced": r["traced"],
                "clock": r["clock"],
                "rss_mb": r["rss_mb"],
                "cache": r["cache"],
                "counts": r["trace"],
            }
            for r in rounds
        ],
    }
    metrics: dict[str, dict] = {}
    if not args.trace:
        calls = sorted(t for r in untraced for t in r["call_ms"])
        values = {
            "setup_s": (setup_s, "s"),
            "job_s": (statistics.median(job), "s"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in untraced), "MB"),
            "call_p50_ms": (percentile(calls, 0.50), "ms"),
            "call_p99_ms": (percentile(calls, 0.99), "ms"),
        }
        record["samples"] = {
            "setup_s": len(setup),
            "job_s": len(job),
            "peak_rss_mb": len(untraced),
            "call_ms": len(calls),
            "call_ms_beyond_p99": sum(1 for t in calls if t > values["call_p99_ms"][0]),
        }
        record["job_raw_s"] = [r["clock"]["raw_s"] for r in untraced]
        if len({len(r["call_ms"]) for r in untraced}) == 1:
            labels = [" ".join(c.argv) if point else c.label for c in plan]
            record["per_call_median_ms"] = {
                label: statistics.median(r["call_ms"][i] for r in untraced)
                for i, label in enumerate(labels)
            }
    else:
        # counts repeat in every traced round; self times take the median
        per_round = [layer_metrics(r["trace"], r["scale"]) for r in traced_rounds]
        layer, ratios = per_round[0]
        values = {
            name: (statistics.median(m[name][0] for m, _ in per_round) if unit == "s" else value, unit)
            for name, (value, unit) in layer.items()
        }
        traced_job = statistics.median(r["clock"]["corrected_s"] for r in traced_rounds)
        values["trace.overhead_ratio"] = (traced_job / statistics.median(job), "ratio")
        record["ratios"] = ratios
        record["samples"] = {"traced_rounds": len(traced_rounds), "untraced_rounds": len(untraced)}
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in listed["per_layer" if args.trace else "end_to_end"]]
    if set(names) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    for name in names:
        value, unit = values[name]
        metrics[name] = {"value": value, "unit": unit}
    record["metrics"] = metrics
    return record, {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sigmaprime" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a sigmaprime checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record, result = run(args)
    path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for msg in record["errors"][:10]:
        print(f"error: {msg}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"samples {json.dumps(record['samples'])}; record {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
