"""The qident benchmark.

    python3 perfbench/run.py --workload suite-stated --seed 1 --seconds 15 --trace 0

Every workload is one closed-loop client doing one operation at a time.
A round runs every operation of the workload once (suites in corpus order,
expand-cold in an order drawn from the seed); rounds repeat until --seconds
have passed and at least MIN_OPS operations are done. Suite rounds each run
in one fresh process, so every round starts with cold caches; expand-cold
starts a fresh interpreter for every operation.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 it runs one untraced and one traced
round plus the micro-battery, writes the spans under perfbench/out/, and
reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "qident" / "corpus" / "builtin.id"
OUT = HERE / "out"

MIN_OPS = 40  # so that the 90th percentile has samples beyond it
SETUP_SAMPLES = 5  # set-up is measured at least this often per run
WORKER_TIMEOUT = 150

sys.path.insert(0, str(HERE))

from checks import check_expansion, check_verdict, corpus_stanzas  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


class BenchError(Exception):
    pass


def _spawn(job: dict):
    """Run one worker process; returns (start stamp, seconds, result)."""
    job = dict(job, src=str(SRC))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT, cwd=str(ROOT),
    )
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise BenchError(f"worker {job['kind']} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return start, elapsed, json.loads(proc.stdout.strip().splitlines()[-1])


class Ops:
    """The operations of one workload, in their order for a seed, with their checks."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        if wl.kind == "suite":
            stanzas = corpus_stanzas(CORPUS.read_text(encoding="utf-8"))
            chosen = [s for s in stanzas if wl.stanzas is None or s[0] in wl.stanzas]
            if wl.stanzas is not None and len(chosen) != len(wl.stanzas):
                raise BenchError(f"a stanza of {wl.name} is missing from the corpus")
            # corpus order, as `qident suite` runs it: which check pays for a
            # theta shared with later stanzas is part of what is measured
            self.expect = {(sid, b): exp for sid, exp, n, _ in chosen for b in range(n)}
            self.keys = [(sid, b) for sid, _, n, _ in chosen for b in range(n)]
            orders = {sid: o for sid, _, _, o in chosen}
            self.sides = [
                (s, Fraction(wl.order) if wl.order else Fraction(orders[s.stanza]))
                for s in wl.sides
            ]
            # reference work stays outside every timed span
            self.side_refs = [s.ref(order) for s, order in self.sides]
        else:
            self.expansions = list(wl.expansions)
            random.Random(seed).shuffle(self.expansions)
            self.keys = [e.source for e in self.expansions]
            self.refs = {e.source: e.ref(Fraction(e.order)) for e in self.expansions}

    def suite_job(self, trace=None) -> dict:
        job = {"kind": "suite", "ops": self.keys, "order": self.wl.order}
        if trace:
            job["trace"] = trace
        else:
            job["probe"] = True
            job["sides"] = [(s.source, str(o), list(s.binds)) for s, o in self.sides]
        return job

    def judge_suite(self, result: dict) -> dict:
        """Problems of each operation of one suite round."""
        problems = {}
        for sid, bidx, status, *_ in result["ops"]:
            p = check_verdict(status, self.expect[(sid, bidx)])
            problems[(sid, bidx)] = [p] if p else []
        for (side, order), ref, (rc, out, err) in zip(self.sides, self.side_refs,
                                                     result.get("sides", [])):
            key = (side.stanza, side.binding)
            if rc != 0:
                problems[key].append(f"expand of {side.source!r} exited {rc}: {err.strip()}")
            else:
                problems[key] += [f"{side.source}: {p}"
                                  for p in check_expansion(out, order, ref)]
        missing = set(self.keys) - set(problems)
        for key in missing:
            problems[key] = ["not run"]
        return problems

    def judge_expand(self, source: str, result: dict) -> list:
        if result["rc"] != 0:
            return [f"exited {result['rc']}: {result['err'].strip()}"]
        order = next(e.order for e in self.expansions if e.source == source)
        return check_expansion(result["out"], Fraction(order), self.refs[source])


def _suite_round(ops: Ops, trace=None):
    start, _, res = _spawn(ops.suite_job(trace))
    return {"setups": [(start, res["ready"], res["ready_spent"])],
            "ops": [(t0, t1, dt) for *_, t0, t1, dt in res["ops"]],
            "samples": res["probe"]["samples"], "rss_kb": res["maxrss_kb"],
            "gmpy2": res["gmpy2"], "problems": ops.judge_suite(res)}


def _expand_round(ops: Ops, trace=None):
    r = {"setups": [], "ops": [], "samples": [], "rss_kb": 0, "problems": {}}
    for i, exp in enumerate(ops.expansions):
        job = {"kind": "expand", "source": exp.source, "order": str(exp.order), "op": i}
        if trace:
            job["trace"] = trace
        else:
            job["probe"] = True
        start, elapsed, res = _spawn(job)
        r["setups"].append((start, res["ready"], res["ready_spent"]))
        r["ops"].append((start, start + elapsed, elapsed - res["probe"]["spent"]))
        r["samples"] += res["probe"]["samples"]
        r["rss_kb"] = max(r["rss_kb"], res["maxrss_kb"])
        r["gmpy2"] = res["gmpy2"]
        r["problems"][exp.source] = ops.judge_expand(exp.source, res)
    return r


def _round(ops: Ops, trace=None):
    return _suite_round(ops, trace) if ops.wl.kind == "suite" else _expand_round(ops, trace)


def _tally(ops: Ops, rounds):
    attempted = failed = 0
    unexpected = []
    for r in rounds:
        for key, probs in r["problems"].items():
            attempted += 1
            if probs:
                failed += 1
                if key not in ops.wl.known_faults:
                    unexpected.append((key, probs))
    return attempted, failed, unexpected


def environment(rounds) -> str:
    backend = {True: "gmpy2", False: "Fraction"}.get(rounds[0]["gmpy2"], "unknown")
    return f"Python {sys.version.split()[0]}, rational backend {backend}, nproc {os.cpu_count()}"


def _report_failures(rounds):
    seen = set()
    for r in rounds:
        for key, probs in r["problems"].items():
            for p in probs:
                if (key, p) not in seen:
                    seen.add((key, p))
                    print(f"failed: {key}: {p}")


class Speed:
    """How much slower than its fastest the machine ran at each moment.

    The machine's cores are shared, and the same work takes up to twice as
    long from one moment to the next. Workers time a fixed piece of Fraction
    arithmetic every PROBE_PERIOD seconds; the fastest of those samples over
    a run is the machine's full speed, and the mean of the samples during an
    interval, with one on either side, is how much slower it ran then. A
    duration divided by that slowdown is what it would have taken at full
    speed, which is what the end-to-end times report.
    """

    def __init__(self, samples):
        samples = sorted(samples)
        self.t = [t for t, _ in samples]
        self.d = [d for _, d in samples]
        self.base = min(self.d) if self.d else None

    def slowdown(self, t0: float, t1: float) -> float:
        if self.base is None:
            return 1.0
        near = self.d[max(0, bisect_left(self.t, t0) - 1): bisect_right(self.t, t1) + 1]
        return statistics.fmean(near) / self.base

    def scale(self, t0: float, t1: float, raw: float) -> float:
        return raw / self.slowdown(t0, t1)


def _time_metrics(rounds, setups, speed):
    times = sorted(speed.scale(*op) for r in rounds for op in r["ops"])
    return {
        "setup_s": statistics.median(speed.scale(t0, t1, t1 - t0 - spent)
                                     for t0, t1, spent in setups),
        "wall_s": statistics.median(sum(speed.scale(*op) for op in r["ops"]) for r in rounds),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10)[-1] * 1e3,
    }


def run_untraced(wl: Workload, seed: int, seconds: int) -> dict:
    ops = Ops(wl, seed)
    rounds, t0 = [], time.monotonic()
    while not rounds or time.monotonic() - t0 < seconds or \
            sum(len(r["ops"]) for r in rounds) < MIN_OPS:
        rounds.append(_round(ops))
    setups = [s for r in rounds for s in r["setups"]]
    samples = [s for r in rounds for s in r["samples"]]
    while len(setups) < SETUP_SAMPLES:
        start, _, res = _spawn(dict(ops.suite_job(), setup_only=True))
        setups.append((start, res["ready"], res["ready_spent"]))
        samples += res["probe"]["samples"]
    speed = Speed(samples)
    raw = _time_metrics(rounds, setups, Speed([]))
    metrics = _time_metrics(rounds, setups, speed)
    metrics["peak_rss_mb"] = max(r["rss_kb"] for r in rounds) / 1024
    units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "peak_rss_mb": "MB"}
    attempted, failed, unexpected = _tally(ops, rounds)
    _report_failures(rounds)
    print(f"# environment: {environment(rounds)}")
    print(f"# {wl.name}: {len(rounds)} round(s), {attempted} operations, {len(setups)} set-ups; "
          f"the machine ran {speed.slowdown(-math.inf, math.inf):.2f}x slower than its fastest "
          f"on average ({len(samples)} probe samples)")
    for name, value in metrics.items():
        extra = f" (as measured: {raw[name]:.6g})" if name in raw else ""
        print(f"{name} = {value:.6g} {units[name]}{extra}")
    print(f"attempted = {attempted}, failed = {failed}")
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_traced(wl: Workload, seed: int) -> dict:
    from tracing import layer_metrics

    ops = Ops(wl, seed)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{wl.name}.spans.jsonl"
    if spans_path.exists():
        spans_path.unlink()
    plain = _round(ops)
    traced = _round(ops, trace=str(spans_path))
    _, _, micro = _spawn({"kind": "micro", "seed": seed})
    with open(spans_path, encoding="utf-8") as fh:
        lines = [json.loads(ln) for ln in fh]
    metrics = layer_metrics(lines)
    metrics.update(micro["metrics"])
    attempted, failed, unexpected = _tally(ops, [plain, traced])
    _report_failures([plain, traced])
    bad_micro = [c for c in micro["checks"] if not c[1]]
    for name, _, detail in bad_micro:
        print(f"failed: micro {name}: {detail}")
    plain_wall = sum(raw for *_, raw in plain["ops"])
    traced_wall = sum(raw for *_, raw in traced["ops"])
    overhead = traced_wall - plain_wall
    print(f"# environment: {environment([plain])}")
    summary = {"workload": wl.name, "seed": seed, "environment": environment([plain]),
               "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
               "overhead_s": overhead,
               "missing": sorted({m for ln in lines for m in ln.get("missing", [])}),
               "micro_products": micro["products"], "metrics": metrics}
    (OUT / f"{wl.name}.layers.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(f"# {wl.name} traced: wall {traced_wall:.3f} s traced, {plain_wall:.3f} s "
          f"untraced, overhead {overhead:.3f} s; spans in {spans_path.relative_to(ROOT)}")
    units = _per_layer_units()
    return {"correct": not unexpected and not bad_micro,
            "attempted": attempted + len(micro["checks"]),
            "failed": failed + len(bad_micro),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def _per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qident" / "__init__.py").is_file():
        print(f"error: no qident sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    try:
        if args.trace:
            result = run_traced(wl, args.seed)
        else:
            result = run_untraced(wl, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
