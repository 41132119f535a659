"""goldbach-ab benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep|comet|probes --seed N \
        --seconds S --trace 0|1

The workload runs in a fresh process (``workload.py``) that calls
``goldbach_ab.cli.main`` request after request (closed loop, one client).
Every output is then checked here against the independent numpy oracle
(``oracle.py``), outside the timed region.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run.  The last line of standard output is the JSON result; the lines before
it give the run's configuration and every metric with its unit.

Exit status is 0 when the result was printed, 1 when the workload process
failed, and 2 when this checkout holds no ``src/goldbach_ab`` to measure.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import oracle
import workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENV_PREFIX = "GOLDBACH_AB_"
# fresh processes timed for setup_s, after one untimed warm-up that fills
# the bytecode cache of a new checkout
SETUP_SAMPLES = 9
# a whole run must end within 180 s; the margin is for the oracle
DEADLINE_S = 170.0
# A pass needs this many requests for a percentile above the median to have
# ten requests beyond it; smaller passes report their slowest request instead.
TAIL_MIN_REQUESTS = 20
TAIL_BEYOND = 10


def _git_commit():
    """HEAD of the checkout read from .git files, or None outside a git repo."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def _run_child(argv, env, timeout):
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def tail_latency(walls):
    """(value, percentile): highest nearest-rank percentile of ``walls`` that
    has at least TAIL_BEYOND values beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    pct = 100 * (n - TAIL_BEYOND) // n
    return ordered[math.ceil(pct * n / 100) - 1], pct


def check_records(records, seed):
    """(failed request count, problem lines) for a list of request records."""
    checker = oracle.Oracle(max(oracle.request_limit(r["argv"]) for r in records), seed)
    failed = 0
    problems = []
    for rec in records:
        if rec["error"] is not None or rec["rc"] != 0:
            found = [f"{rec['id']}: exit {rec['rc']}, error {rec['error']}"]
        elif not os.path.isfile(rec["out"]):
            found = [f"{rec['id']}: no output file"]
        else:
            with open(rec["out"]) as fh:
                found = [f"{rec['id']}: {p}" for p in checker.check(rec["argv"], fh.read())]
        failed += bool(found)
        problems += found
    return failed, problems


def end_to_end(result, setup_samples):
    """End-to-end metrics of an untraced run: {name: (value, unit, note)}.

    Every pass repeats the same requests.  A request's *best time* is its
    lowest wall time over the passes: on a shared host, slowdowns caused by
    other tenants only ever add time, and the best of several repeats keeps
    them out of the throughput and the median.  The tail is taken over every
    request as sent, slowdowns included.
    """
    records = result["records"]
    passes = result["passes"]
    per_pass = len(records) // passes
    walls = [r["wall_s"] for r in records]
    best = [min(walls[i::per_pass]) for i in range(per_pass)]
    pass_evens = sum(r["evens"] for r in records[:per_pass])
    if per_pass >= TAIL_MIN_REQUESTS:
        tail, pct = tail_latency(walls)
        tail_note = f"p{pct} of {len(walls)} requests"
    else:
        tail = max(best)
        tail_note = f"slowest of {per_pass} best times, {len(walls)} requests"
    return {
        "evens_per_s": (pass_evens / sum(best), "evens/s",
                        f"{pass_evens} evens per pass, best of {passes} passes"),
        "latency_p50_s": (statistics.median(best), "s",
                          f"median of {per_pass} best times, {len(walls)} requests"),
        "latency_tail_s": (tail, "s", tail_note),
        "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB", "ru_maxrss of the workload process"),
        "setup_s": (statistics.median(setup_samples), "s",
                    f"median of {len(setup_samples)} fresh processes"),
    }


def per_layer(result):
    """Per-layer metrics of a traced run: {name: (value, unit, note)}."""
    out = {k: (v, unit, "") for k, (v, unit) in result["trace"]["metrics"].items()}
    out["claims.pool.worker_peak_rss_mb"] = (
        result["children_maxrss_kb"] / 1024, "MB", "ru_maxrss of RUSAGE_CHILDREN")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "goldbach_ab", "__init__.py")):
        print(f"error: no src/goldbach_ab package in {ROOT}", file=sys.stderr)
        return 2
    overrides = sorted(k for k in os.environ if k.startswith(ENV_PREFIX))
    env = {k: v for k, v in os.environ.items() if not k.startswith(ENV_PREFIX)}
    scratch = os.path.join(HERE, "_scratch", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch)
    client = [sys.executable, os.path.join(HERE, "workload.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]
    try:
        setup_samples = []
        for i in range(SETUP_SAMPLES + 1):
            rc, out = _run_child(client + ["--mode", "setup"], env, 30)
            if rc != 0:
                print(f"error: setup process exited {rc}", file=sys.stderr)
                return 1
            if i:
                setup_samples.append(float(out))
        mode = "trace" if args.trace else "run"
        remaining = DEADLINE_S - (time.perf_counter() - started)
        rc, _ = _run_child(client + ["--mode", mode, "--outdir", scratch], env, remaining)
        if rc != 0:
            print(f"error: workload process exited {rc}", file=sys.stderr)
            return 1
        with open(os.path.join(scratch, "result.json")) as fh:
            result = json.load(fh)
        setup_samples.append(result["setup_s"])
        failed, problems = check_records(result["records"], args.seed)
    except subprocess.TimeoutExpired:
        print("error: workload did not finish before the deadline", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = per_layer(result) if args.trace else end_to_end(result, setup_samples)
    attempted = len(result["records"])
    config = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_commit": _git_commit(),
              **result["config"], "env_overrides_cleared": overrides}
    print("config " + json.dumps(config, sort_keys=True))
    for line in problems[:20]:
        print("FAILED " + line)
    print(f"requests {attempted}, failed {failed}, failed_frac {failed / attempted:.4f}")
    if args.trace:
        tr = result["trace"]
        print(f"untraced pass {tr['untraced_s']:.4f} s, traced pass {tr['traced_s']:.4f} s, "
              f"{tr['spans']} spans in {os.path.relpath(tr['span_file'], ROOT)}")
        shares = ", ".join(f"{k} {v:.1%}" for k, v in tr["self_shares"].items())
        print(f"self-time shares of cli.main: {shares}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit:10s} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
