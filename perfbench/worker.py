"""One process of the benchmark: runs a job given as a JSON argument and
prints its result as one JSON line.

    python3 perfbench/worker.py '{"kind": "suite", ...}'

Kinds: "suite" runs (case, binding) checks serially with cold caches,
"expand" runs one `qident expand` through the command-line entry point,
"micro" runs the kernel micro-battery. The parent stamps the time it
starts this process; "ready" is the time the job's inputs are loaded, on
the same monotonic clock, so their difference is the set-up time.

With "probe" set, a timer interrupts the job every PROBE_PERIOD seconds to
time a fixed piece of Fraction arithmetic. Those samples tell the parent
how fast the machine ran at each moment; the time spent in them is taken
out of every duration reported here.
"""

import sys
import time
from fractions import Fraction  # imported before the probe timer can fire

PROBE_PERIOD = 0.01
_probe = {"samples": [], "spent": 0.0}


def _probe_once(signum=None, frame=None, record=True):
    t0 = time.monotonic()
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    dt = time.monotonic() - t0
    if record:
        _probe["samples"].append((t0, dt))
    _probe["spent"] += dt


def _start_probe():
    import signal

    for _ in range(20):  # let the interpreter specialise the probe's code first
        _probe_once(record=False)
    signal.signal(signal.SIGALRM, _probe_once)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)


def _stop_probe():
    import signal

    signal.setitimer(signal.ITIMER_REAL, 0)


def _suite(job):
    import qident

    tracer = _tracer(job)
    stanzas = {c.id: c for c in qident.builtin_cases()}
    order = job.get("order")
    ops = [(sid, bidx, stanzas.get(sid)) for sid, bidx in job["ops"]]
    ready = time.monotonic()
    ready_spent = _probe["spent"]
    if job.get("setup_only"):
        return {"ready": ready, "ready_spent": ready_spent}
    check = qident.check
    results = []
    for i, (sid, bidx, case) in enumerate(ops):
        if tracer:
            tracer.op = i
        spent = _probe["spent"]
        t0 = time.monotonic()
        try:
            if case is None:
                raise LookupError(f"no stanza {sid!r} in the built-in corpus")
            status = check(case, bidx, order).status
        except Exception as exc:  # any failure of one check fails that operation
            status = f"error: {type(exc).__name__}: {exc}"
        t1 = time.monotonic()
        results.append([sid, bidx, status, t0, t1, t1 - t0 - (_probe["spent"] - spent)])
    if tracer:
        tracer.op = -1
    _stop_probe()  # the sides are checked, not timed
    sides = [_expand(src, o, binds) for src, o, binds in job.get("sides", [])]
    return {"ready": ready, "ready_spent": ready_spent, "ops": results, "sides": sides,
            "tracer": tracer}


def _expand(source, order, binds):
    import contextlib
    import io

    import qident.cli

    argv = ["expand", source, "--order", order]
    for b in binds:
        argv += ["--bind", b]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qident.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return [rc, out.getvalue(), err.getvalue()]


def _expand_job(job):
    import qident.cli  # noqa: F401  (the import is part of the set-up)

    tracer = _tracer(job)
    ready = time.monotonic()
    ready_spent = _probe["spent"]
    if tracer:
        tracer.op = job["op"]
    rc, out, err = _expand(job["source"], job["order"], [])
    return {"ready": ready, "ready_spent": ready_spent, "rc": rc, "out": out, "err": err,
            "tracer": tracer}


def _tracer(job):
    if not job.get("trace"):
        return None
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def main():
    import json

    job = json.loads(sys.argv[1])
    if job.get("probe"):
        _start_probe()
    sys.path.insert(0, job["src"])
    if job["kind"] == "suite":
        result = _suite(job)
    elif job["kind"] == "expand":
        result = _expand_job(job)
    elif job["kind"] == "micro":
        import micro

        result = micro.run(job["seed"])
    else:
        raise SystemExit(f"unknown job kind {job['kind']!r}")
    _stop_probe()
    tracer = result.pop("tracer", None)
    if tracer:
        tracer.dump(job["trace"])
    result["probe"] = _probe
    result["maxrss_kb"] = _peak_rss_kb()
    result["gmpy2"] = getattr(sys.modules.get("qident._rat"), "HAVE_GMPY2", None)
    print(json.dumps(result))


def _peak_rss_kb():
    """Peak resident set of this process. getrusage's ru_maxrss is not
    used where /proc is there: it keeps the peak of the parent's memory that
    the child shared between fork and exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    main()
