import json
import multiprocessing
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from goldbach_ab import (
    ClaimId,
    EvenTarget,
    UsageError,
    build_table,
    census,
    split_primes,
)
from goldbach_ab.claims import ALL_CLAIMS, ClaimOutcome
from goldbach_ab import claims as claims_mod
from goldbach_ab import cli
from goldbach_ab.cli import COMET_HEADER, build_analyze_report, main, parse_claims
from goldbach_ab import sieve as sieve_mod
from goldbach_ab.sieve import PrimeTable


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_comet_spot_rows(capsys):
    code, out, _ = run_main(["comet", "10", "10"], capsys)
    assert code == 0
    assert out == "two_n,r,s,a_count,b_count\n10,2,2,1,1\n"
    code, out, _ = run_main(["comet", "16", "16"], capsys)
    assert out == "two_n,r,s,a_count,b_count\n16,2,5,3,0\n"
    code, out, _ = run_main(["comet", "100", "100"], capsys)
    assert out.splitlines()[1].startswith("100,6,")


def test_comet_range_flag_equivalent(capsys):
    _, out_pos, _ = run_main(["comet", "8", "40"], capsys)
    _, out_flag, _ = run_main(["comet", "--range", "8..40"], capsys)
    assert out_pos == out_flag


def test_comet_rejects_conflicting_ranges(capsys):
    code, _, err = run_main(["comet", "8", "40", "--range", "8..40"], capsys)
    assert code == 2
    assert "not both" in err


def test_comet_json_format(capsys):
    code, out, _ = run_main(["comet", "10", "12", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {"two_n": 10, "r": 2, "s": 2, "a_count": 1, "b_count": 1}
    assert [r["two_n"] for r in rows] == [10, 12]


def test_analyze_20_report(capsys):
    code, out, _ = run_main(["analyze", "20"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["prime_split"]["s"] == 5
    assert rep["pairing"]["pairs"] == [[3, 17], [7, 13]]
    assert rep["pairing"]["unpaired"] == [11]
    mid = {v["value"]: v["is_prime"] for v in rep["midpoints"]["values"]}
    assert mid == {9: False, 11: True}
    assert all(c["status"] == "pass" for c in rep["claims"])


def test_analyze_6_boundary_report(capsys):
    code, out, _ = run_main(["analyze", "6"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["census"]["goldbach_pairs"] == [[3, 3]]
    assert rep["midpoints"] is None
    statuses = {c["claim"]: c["status"] for c in rep["claims"]}
    assert statuses["goldbach_witness"] == "pass"
    assert statuses["same_type_lemma"] == "pass"
    assert statuses["s_bound"] == "boundary"


def test_analyze_rejects_odd_and_small(capsys):
    assert run_main(["analyze", "7"], capsys)[0] == 2
    assert run_main(["analyze", "4"], capsys)[0] == 2


def test_analyze_csv_flat_format(capsys):
    code, out, _ = run_main(["analyze", "10", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "field,value"
    assert "two_n,10" in lines
    assert any(line.startswith("prime_split.s,") for line in lines)


@pytest.mark.parametrize("two_n", [6, 8, 10, 20, 2310, 4620, 6930, 9240, 30030,
                                   88934, 99998])
def test_analyze_json_is_the_indented_dump(capsys, two_n):
    code, out, _ = run_main(["analyze", str(two_n)], capsys)
    assert code == 0
    report = build_analyze_report(EvenTarget(two_n), build_table(two_n + 1))
    assert out == json.dumps(report, indent=2) + "\n"
    if two_n == 6:  # no A-prime: empty arrays, no midpoints
        assert report["midpoints"] is None
        assert report["companions"] == report["prime_split"]["a_primes"] == []
        assert report["pairing"] == {"pairs": [], "unpaired": []}


def test_analyze_builds_no_companion_records(monkeypatch, capsys):
    """The report and the verdicts read the rows of the factor walk; only
    ``companions()`` turns them into records."""
    built = []
    real = claims_mod.CompanionRecord

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(claims_mod, "CompanionRecord", counted)
    code, out, _ = run_main(["analyze", "30030"], capsys)
    assert code == 0 and out
    assert built == []
    t = EvenTarget(30030)
    table = build_table(30031)
    split = split_primes(t, table)
    assert len(claims_mod.companions(t, split, table)) == split.s == len(built)


@pytest.mark.parametrize("two_n", [6, 8, 2310, 30030])
def test_census_json_is_the_indented_dump(capsys, two_n):
    t = EvenTarget(two_n)
    table = build_table(two_n + 1)
    cen = census(t, table)
    doc = {"two_n": two_n, "s": split_primes(t, table).s, "total": cen.total,
           "a_count": cen.a_count, "b_count": cen.b_count,
           "mixed_count": cen.mixed_count, "goldbach_count": cen.goldbach_count,
           "goldbach_pairs": [list(p) for p in cen.goldbach_pairs]}
    code, out, _ = run_main(["census", str(two_n), "--format", "json"], capsys)
    assert code == 0
    assert out == json.dumps(doc, indent=2) + "\n"


def test_report_json_matches_dumps_on_edge_shapes():
    doc = {
        "prime_split": {"s": 0, "a_primes": [], "b_primes": [3]},
        "census": {"goldbach_pairs": []},
        "companions": [{"p": 3, "companion": 7, "companion_is_prime": True,
                        "exponents": {}},
                       {"p": 5, "companion": 45, "companion_is_prime": False,
                        "exponents": {"3": 2, "5": 1}}],
        "pairing": {"error": 'a "quoted" \u0000 message', "witness": {"p": 3}},
    }
    want = json.dumps(doc, indent=2) + "\n"
    rows = dict(doc, companions=[(3, 7, True), (5, 45, False, 3, 2, 5, 1)])
    assert "".join(cli._report_json(rows, cli._ANALYZE_ARRAYS)) == want


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("lo, hi", [(6, 6), (10, 12), (8, 2000)])
def test_comet_json_is_the_indented_dump(capsys, lo, hi, workers):
    code, out, _ = run_main(["comet", str(lo), str(hi), "--format", "json",
                             "--workers", str(workers)], capsys)
    assert code == 0
    rows = claims_mod.comet_rows(lo, hi)
    doc = [dict(zip(COMET_HEADER.split(","), row)) for row in rows]
    assert out == json.dumps(doc, indent=2) + "\n"


class _WriteSink:
    """Stand-in for sys.stdout that keeps every write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def _streamed(monkeypatch, argv):
    sink = _WriteSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(argv) == 0
    monkeypatch.undo()
    return sink.writes


def test_documents_are_written_in_bounded_pieces(monkeypatch):
    """analyze, census and comet write their documents piece by piece: no
    write holds the whole document, and the pieces join to the dump."""
    limit = 256 * 1024
    writes = _streamed(monkeypatch, ["analyze", "88934"])
    text = "".join(writes)
    report = build_analyze_report(EvenTarget(88934), build_table(88935))
    assert text == json.dumps(report, indent=2) + "\n"
    assert len(text) > 1_600_000 and max(map(len, writes)) <= limit

    writes = _streamed(monkeypatch, ["census", "1004662", "--format", "json"])
    t = EvenTarget(1004662)
    table = build_table(1004663)
    cen = census(t, table)
    doc = {"two_n": t.two_n, "s": split_primes(t, table).s, "total": cen.total,
           "a_count": cen.a_count, "b_count": cen.b_count,
           "mixed_count": cen.mixed_count, "goldbach_count": cen.goldbach_count,
           "goldbach_pairs": [list(p) for p in cen.goldbach_pairs]}
    assert "".join(writes) == json.dumps(doc, indent=2) + "\n"
    assert len(writes) > 1 and max(map(len, writes)) <= limit

    writes = _streamed(monkeypatch, ["comet", "8", "20000"])
    assert len(writes) > 1 and max(map(len, writes)) <= limit


def test_analyze_dumps_no_long_array(monkeypatch, capsys):
    """Every long array of the analyze document, the pairing verdict's pairs
    included, is rendered by a template, not by json.dumps."""
    dumped = []

    def dumps(doc, **kwargs):
        dumped.append(doc)
        return json.dumps(doc, **kwargs)

    def longest(node):
        if isinstance(node, dict):
            return max(map(longest, node.values()), default=0)
        if isinstance(node, (list, tuple)):
            return max(len(node), *map(longest, node))
        return 0

    monkeypatch.setattr(cli, "json", SimpleNamespace(dumps=dumps))
    code, out, _ = run_main(["analyze", "88934"], capsys)
    assert code == 0 and len(dumped) == 1
    assert longest(dumped[0]) == len(ALL_CLAIMS)
    assert len(json.loads(out)["claims"][5]["payload"]["pairs"]) == 557


def _doctored_build(clear=(), mark=()):
    """build_table with the odds in ``clear`` marked composite and those in
    ``mark`` marked prime."""
    def build(limit, segment_size=1 << 18):
        bits = bytearray(build_table(limit, segment_size).odd_bits)
        for m in clear:
            bits[m >> 1] = 0
        for m in mark:
            bits[m >> 1] = 1
        return PrimeTable(limit, bytes(bits))

    return build


# (two_n, cleared, marked, claims that break).  A marked composite is typed
# by its gcd with 2N, as any odd is: 27 and 8931 share 3 with their targets,
# so they are B-primes and no report breaks.  A cleared prime partner leaves a
# companion whose factor the table does not mark prime.
_DOCTORED_ANALYZE = [
    (30, (), (27,), set()),
    (8934, (), (8931,), set()),
    (100, (97,), (), {"companion_decomposes"}),
    (1000, (997,), (), {"companion_decomposes"}),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("two_n, clear, mark, broken", _DOCTORED_ANALYZE)
def test_analyze_reports_a_doctored_table(monkeypatch, capsys, two_n, clear, mark,
                                          broken, fmt):
    build = _doctored_build(clear, mark)
    monkeypatch.setattr(cli, "build_table", build)
    code, out, _ = run_main(["analyze", str(two_n), "--format", fmt], capsys)
    assert code == (1 if broken else 0)
    report = build_analyze_report(EvenTarget(two_n), build(two_n + 1, 1 << 18))
    if fmt == "csv":
        assert out == cli._flat_csv(report)
        return
    assert out == json.dumps(report, indent=2) + "\n"
    assert set(mark) <= set(report["prime_split"]["b_primes"])
    assert set(report["pairing"]) == {"pairs", "unpaired"}
    assert {c["claim"] for c in report["claims"] if c["status"] == "fail"} == broken
    if broken:
        (q,) = clear
        assert report["companions"]["witness"] == {
            "two_n": two_n, "p": two_n - q, "companion": q, "factor": q,
            "reason": "factor not marked prime"}
    else:
        assert isinstance(report["companions"], list)


def test_analyze_exits_1_when_28_has_no_goldbach_pair(monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_table", _doctored_build(clear=(17, 23)))
    code, out, _ = run_main(["analyze", "28"], capsys)
    assert code == 1
    failed = {c["claim"] for c in json.loads(out)["claims"] if c["status"] == "fail"}
    assert {"goldbach_witness", "pairing_non_empty"} <= failed


def test_analyze_csv_is_written_from_the_rows(monkeypatch, capsys):
    t = EvenTarget(88934)
    want = cli._flat_csv(build_analyze_report(t, build_table(t.two_n + 1)))

    def unused(*args):
        raise AssertionError("analyze built the dict report")

    monkeypatch.setattr(cli, "build_analyze_report", unused)
    code, out, _ = run_main(["analyze", "88934", "--format", "csv"], capsys)
    assert code == 0
    assert out == want


def test_census_csv_and_json(capsys):
    code, out, _ = run_main(["census", "6", "--format", "csv"], capsys)
    assert code == 0
    assert out == f"{COMET_HEADER}\n6,1,0,0,1\n"
    code, out, _ = run_main(["census", "16"], capsys)
    doc = json.loads(out)
    assert doc["total"] == 3 and doc["s"] == 5


def test_verify_small_range_passes(capsys):
    code, out, _ = run_main(["verify", "8", "400", "--all"], capsys)
    assert code == 0
    assert "summary: 8/8 claims hold" in out
    assert "min s=2 at 2N=8" in out


def test_verify_selected_claim_text(capsys):
    code, out, _ = run_main(["verify", "8", "200", "--claims", "sbound"], capsys)
    assert code == 0
    assert "claim s_bound: pass" in out
    assert "min s=" in out and "max s=" in out


def test_verify_sbound_to_1e5_reports_min_s(capsys):
    code, out, _ = run_main(["verify", "8", "100000", "--claims", "sbound"], capsys)
    assert code == 0
    assert "min s=2 at 2N=8" in out


def test_verify_json_format(capsys):
    code, out, _ = run_main(
        ["verify", "8", "100", "--claims", "witness,sametype", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exit_code"] == 0
    assert [o["claim"] for o in doc["outcomes"]] == [
        "same_type_lemma",
        "goldbach_witness",
    ]
    assert doc["s_stats"]["min_s"]["s"] == 2


def test_verify_boundary_range_exits_zero(capsys):
    code, out, _ = run_main(["verify", "6", "6", "--claims", "sbound"], capsys)
    assert code == 0
    assert "boundary" in out


def test_verify_csv_format(capsys):
    code, out, _ = run_main(
        ["verify", "8", "60", "--claims", "sbound,witness", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "claim,status,evens_checked,payload"
    assert lines[1].startswith("s_bound,pass,27,")
    assert lines[2].startswith("goldbach_witness,pass,27,")


def test_verify_usage_errors(capsys):
    assert run_main(["verify", "10", "9"], capsys)[0] == 2
    assert run_main(["verify", "7", "9"], capsys)[0] == 2
    assert run_main(["verify", "8", "100", "--claims", "nonsense"], capsys)[0] == 2
    for claims in ("all,bogus", "bogus,all", "sbound,all,bogus"):
        assert run_main(["verify", "8", "100", "--claims", claims], capsys)[0] == 2
    assert run_main(["verify", "8"], capsys)[0] == 2


@pytest.mark.parametrize("argv", [
    ["verify", "8", "2000001"],
    ["verify", "8", "-4"],
    ["comet", "2000000", "8"],
    ["verify", "8", "100", "--workers", "0"],
], ids="-".join)
def test_usage_errors_come_before_any_sieve(monkeypatch, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError(f"build_table{args} ran on a usage error")

    monkeypatch.setattr(cli, "build_table", refuse)
    monkeypatch.setattr(claims_mod, "build_table", refuse)
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["verify", "8", "100", "--claims", "sbound", "--all"], "not both"),
    (["verify", "--range", "8-40"], "--range expects LO..HI"),
    (["comet", "--range", "a..b"], "--range expects integers"),
])
def test_cli_usage_errors_through_main(capsys, argv, message):
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert message in err


def test_workers_env_is_read_by_range_commands_only(monkeypatch, capsys):
    monkeypatch.setenv("GOLDBACH_AB_WORKERS", "oops")
    for argv in (["verify", "8", "20"], ["comet", "8", "20"]):
        code, out, err = run_main(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert "GOLDBACH_AB_WORKERS must be an integer, got 'oops'" in err
    for argv in (["analyze", "20"], ["census", "20"], ["comet", "8", "20",
                                                       "--workers", "1"]):
        code, out, _ = run_main(argv, capsys)
        assert code == 0, argv
        assert out


def test_verify_counterexample_exit_code(capsys, monkeypatch):
    fake = [
        ClaimOutcome(
            claim_id=cid,
            lo=8,
            hi=100,
            status="fail" if cid is ClaimId.GOLDBACH_WITNESS else "pass",
            payload={"evens_checked": 47, "counterexample": {"two_n": 42}}
            if cid is ClaimId.GOLDBACH_WITNESS
            else {"evens_checked": 47},
        )
        for cid in ALL_CLAIMS
    ]
    monkeypatch.setattr(cli, "range_verify", lambda *a, **k: fake)
    code, out, _ = run_main(["verify", "8", "100", "--all"], capsys)
    assert code == 1
    assert "counterexample" in out


def test_parse_claims_aliases():
    assert parse_claims("all") == ALL_CLAIMS
    assert parse_claims("sbound") == (ClaimId.S_BOUND,)
    assert parse_claims("same-type,witness") == (
        ClaimId.SAME_TYPE_LEMMA,
        ClaimId.GOLDBACH_WITNESS,
    )
    assert parse_claims("midpoint_coprime,midpointdecomposes") == (
        ClaimId.MIDPOINT_COPRIME,
        ClaimId.MIDPOINT_DECOMPOSES,
    )
    with pytest.raises(UsageError):
        parse_claims("bogus")
    with pytest.raises(UsageError):
        parse_claims(",")
    vocabulary = {
        "same_type": ClaimId.SAME_TYPE_LEMMA,
        "same_type_lemma": ClaimId.SAME_TYPE_LEMMA,
        "s_bound": ClaimId.S_BOUND,
        "s_bounds": ClaimId.S_BOUND,
        "prime_power": ClaimId.PRIME_POWER_EXCLUSION,
        "prime_power_exclusion": ClaimId.PRIME_POWER_EXCLUSION,
        "midpoint_coprime": ClaimId.MIDPOINT_COPRIME,
        "midpoint_decomposes": ClaimId.MIDPOINT_DECOMPOSES,
        "pairing": ClaimId.PAIRING_NON_EMPTY,
        "pairing_non_empty": ClaimId.PAIRING_NON_EMPTY,
        "witness": ClaimId.GOLDBACH_WITNESS,
        "goldbach": ClaimId.GOLDBACH_WITNESS,
        "goldbach_witness": ClaimId.GOLDBACH_WITNESS,
        "companions": ClaimId.COMPANION_DECOMPOSES,
        "companion": ClaimId.COMPANION_DECOMPOSES,
        "companion_decomposes": ClaimId.COMPANION_DECOMPOSES,
    }
    for name, cid in vocabulary.items():
        for token in (name, name.replace("_", ""), name.replace("_", "-"),
                      name.upper(), name.title().replace("_", "-"), f" {name} "):
            assert parse_claims(token) == (cid,), token
    for token in ("all", "ALL", "All", "sbound,all", "all,witness"):
        assert parse_claims(token) == ALL_CLAIMS, token
    for token in ("midpoint", "same", "goldbachs", "all,bogus", "bogus,all"):
        with pytest.raises(UsageError):
            parse_claims(token)


def test_workers_env_override(monkeypatch, capsys):
    seen = []

    def record(lo, hi, workers=1, **kwargs):
        seen.append(workers)
        return []

    monkeypatch.setattr(cli, "comet_rows", record)
    monkeypatch.setenv("GOLDBACH_AB_WORKERS", "3")
    assert run_main(["comet", "8", "20"], capsys)[0] == 0
    assert seen == [3]
    monkeypatch.setenv("GOLDBACH_AB_WORKERS", "oops")
    code, _, err = run_main(["comet", "8", "20"], capsys)
    assert code == 2
    assert "GOLDBACH_AB_WORKERS" in err
    assert seen == [3]


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run_main(["comet", "8", "20", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    text = path.read_text()
    assert text.startswith(COMET_HEADER + "\n")
    assert text.endswith("\n")


@pytest.mark.parametrize("argv", [["comet", "8", "20"], ["analyze", "20"],
                                  ["analyze", "20", "--format", "csv"]])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    for out in (tmp_path, tmp_path / "missing" / "x.csv"):
        code, stdout, err = run_main([*argv, "--out", str(out)], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class _ClosedPipe:
    """Stand-in for sys.stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_pipe_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["comet", "8", "20"])
    assert sys.stdout.name == os.devnull  # what is left to flush goes nowhere
    sys.stdout.close()
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("module, argv", [
    (cli, ["census", "20"]),
    (claims_mod, ["comet", "8", "20"]),
    (claims_mod, ["verify", "8", "20"]),
])
def test_out_of_memory_exits_2(monkeypatch, capsys, module, argv):
    def build_table(*args):
        raise MemoryError

    monkeypatch.setattr(module, "build_table", build_table)
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: MemoryError\n"


@pytest.mark.skipif(not hasattr(os, "sysconf"), reason="no physical memory figure")
@pytest.mark.parametrize("argv", [
    ["census", str(10**18)], ["analyze", str(10**18)],
    ["verify", "8", str(10**18)], ["comet", "8", str(10**18)],
])
def test_a_table_past_physical_memory_exits_2(monkeypatch, capsys, argv):
    def struck(*args):
        raise AssertionError("sieved before the memory check")

    monkeypatch.setattr(sieve_mod, "_strike_odds", struck)
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bytes of physical memory" in err


def test_comet_workers_byte_identical(tmp_path, capsys):
    outputs = []
    for w in ("1", "2"):
        path = tmp_path / f"rows_{w}.csv"
        code, _, _ = run_main(
            ["comet", "8", "2000", "--workers", w, "--out", str(path)], capsys
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


class _PoolRecorder:
    """``multiprocessing`` as ``claims`` sees it: real pools, sizes recorded."""

    def __init__(self):
        self.sizes = []

    def Pool(self, processes, *args):
        self.sizes.append(processes)
        return multiprocessing.Pool(processes, *args)


@pytest.mark.parametrize("hi, pools", [
    (32_768, []),        # 2 chunks of 8192 evens: every run stays in process
    (49_160, [2, 2]),    # 4 chunks: workers 2 and 3 both pool 2 processes
])
def test_range_commands_pool_only_with_two_chunks_a_worker(monkeypatch, capsys,
                                                            hi, pools):
    recorder = _PoolRecorder()
    cpus = claims_mod._usable_cpus()
    monkeypatch.setattr(claims_mod, "_usable_cpus", lambda: max(2, cpus))
    monkeypatch.setattr(claims_mod, "multiprocessing", recorder)
    for argv in (["verify", "8", str(hi), "--all", "--format", "json"],
                 ["comet", "8", str(hi)]):
        outs = []
        for w in (1, 2, 3):
            code, out, _ = run_main([*argv, "--workers", str(w)], capsys)
            assert code == 0
            outs.append(out.replace(f'"workers": {w},', '"workers": 1,', 1))
        assert outs[1] == outs[0] and outs[2] == outs[0], argv
    assert recorder.sizes == pools + pools


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "goldbach_ab.cli", "comet", "10", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "two_n,r,s,a_count,b_count\n10,2,2,1,1\n"
    bad = subprocess.run(
        [sys.executable, "-m", "goldbach_ab.cli", "analyze", "7"],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 2
