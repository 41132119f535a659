"""Self-checks of the benchmark: the correctness gate can fail, the tail rule
and the oracle's reference values are right, tracing restores the package,
and a checkout without the program yields no result.

Run with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import spans
import workload

LINEAR = workload.LINEAR_CLAIMS
REQUESTS = [
    {"argv": ["comet", "1000", "1400", "--workers", "1"], "evens": 201},
    {"argv": ["verify", "1000", "1400", "--claims", LINEAR, "--workers", "2",
              "--format", "json"], "evens": 201},
    {"argv": ["verify", "1000", "1200", "--claims", "same-type,companions",
              "--workers", "1", "--format", "json"], "evens": 101},
    {"argv": ["census", "2000", "--format", "csv"], "evens": 1},
    {"argv": ["analyze", "500"], "evens": 1},
]


@pytest.fixture(scope="module")
def pkg():
    return workload._import_package()


@pytest.fixture
def records(pkg, tmp_path):
    recs = []
    workload.run_pass(pkg.cli.main, REQUESTS, str(tmp_path), "t", recs)
    return recs


def _rewrite(path, edit):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(text))


def test_real_outputs_pass_the_oracle(records):
    assert run.check_records(records, seed=1) == (0, [])


def test_comet_r_off_by_one_fails(records):
    def bump_r(text):
        lines = text.splitlines()
        row = lines[5].split(",")
        row[1] = str(int(row[1]) + 1)
        lines[5] = ",".join(row)
        return "\n".join(lines) + "\n"

    _rewrite(records[0]["out"], bump_r)
    failed, problems = run.check_records(records, seed=1)
    assert failed / len(records) > 0
    assert failed == 1 and "r at 1008" in problems[0]


def test_verify_wrong_evens_checked_fails(records):
    def shrink(text):
        doc = json.loads(text)
        doc["outcomes"][2]["payload"]["evens_checked"] -= 1
        return json.dumps(doc)

    _rewrite(records[1]["out"], shrink)
    failed, problems = run.check_records(records, seed=1)
    assert failed == 1 and "checked 200 of 201 evens" in problems[0]


def test_failing_claim_and_bad_exit_fail(records):
    def fail_claim(text):
        doc = json.loads(text)
        doc["claims"][0]["status"] = "fail"
        return json.dumps(doc)

    _rewrite(records[4]["out"], fail_claim)
    records[3]["rc"] = 1
    failed, _ = run.check_records(records, seed=1)
    assert failed == 2


@pytest.mark.parametrize("n, pct", [(20, 50), (21, 52), (100, 90), (144, 93)])
def test_tail_latency_keeps_ten_requests_beyond(n, pct):
    walls = [float(i) for i in range(n)]
    value, got = run.tail_latency(walls[::-1])
    assert got == pct
    assert sum(w > value for w in walls) >= run.TAIL_BEYOND
    assert sum(w >= value for w in walls) * 100 >= (100 - pct) * n


def test_oracle_reference_values():
    orc = oracle.Oracle(2000)
    assert orc.r(100) == 6  # 3+97, 11+89, 17+83, 29+71, 41+59, 47+53
    assert orc.s(100) == 23  # 24 odd primes up to 97, minus 5
    assert orc.s(6) == 0
    assert orc.ab_counts(30) == (3, 4)  # A: 7+23, 11+19, 13+17; B: 3+27, 5+25, 9+21, 15+15
    lo, hi = 8, 1998
    evens = range(lo, hi + 1, 2)
    assert list(orc.r_range(lo, hi)) == [orc.r(t) for t in evens]
    assert list(orc.s_range(lo, hi)) == [orc.s(t) for t in evens]


def test_tracer_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [[0, "outer", 0.0, 10.0, None, "r", 0.0],
                    [1, "inner", 1.0, 4.0, 0, "r", 0.0],
                    [2, "inner", 5.0, 7.0, 0, "r", 0.5]]
    total, own, calls = tracer.durations()
    assert total == {"outer": 10.0, "inner": 4.5}
    assert own == {"outer": 5.5, "inner": 4.5}
    assert calls == {"outer": 1, "inner": 2}


def test_patched_restores_the_package(pkg):
    from goldbach_ab import claims, cli

    before = {a: getattr(cli, a) for a, _ in spans.WRAPPED if hasattr(cli, a)}
    mp = claims.multiprocessing
    with spans.patched(spans.Tracer(), []):
        assert cli.build_table is not before["build_table"]
        assert isinstance(claims.multiprocessing, spans.TimedPoolModule)
    assert {a: getattr(cli, a) for a in before} == before
    assert claims.multiprocessing is mp


def test_no_program_means_no_result(tmp_path):
    """Without src/goldbach_ab the benchmark exits non-zero and prints no result."""
    bench = tmp_path / "perfbench"
    shutil.copytree(workload.HERE, bench, ignore=shutil.ignore_patterns("_*"))
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
