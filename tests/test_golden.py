"""Golden outputs: sha256 digests that pin default output byte for byte.

``golden.json`` holds, for each CLI command, the sha256 of its stdout plus
its exit code, and two digests over the library's range outputs: one on the
true table (``library_true``) and one on six bit-flipped tables
(``library_doctored``).  Any change to what a command prints or returns
shows here.  CI runs the same command list through the installed
``goldbach-ab`` console script.

``python tests/test_golden.py`` prints every digest this module checks; it
never writes ``golden.json``.
"""

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from goldbach_ab import build_table, comet_rows, range_verify
from goldbach_ab.cli import ENV_WORKERS, main
from goldbach_ab.sieve import PrimeTable

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())


def cli_digest(stdout: bytes, code: int) -> str:
    """sha256 of a command's stdout, a NUL byte and its exit code in decimal."""
    return hashlib.sha256(stdout + b"\0" + str(code).encode()).hexdigest()


@pytest.mark.parametrize("command", GOLDEN["cli"], ids=lambda c: c["args"])
def test_cli_output_matches_its_golden_digest(command, capsys, monkeypatch):
    monkeypatch.delenv(ENV_WORKERS, raising=False)
    code = main(command["args"].split())
    assert cli_digest(capsys.readouterr().out.encode(), code) == command["sha256"]


def _tables():
    """A true table and six with 1-6 flipped bits; half the flips fall on the
    odds below 80, where the scan's primes sit."""
    true = build_table(4_001)
    tables = [true]
    for k in range(1, 7):
        rng = random.Random(10 * k)
        bits = bytearray(true.odd_bits)
        for i in rng.sample(range(1, 40), k // 2) + rng.sample(range(40, 1_000),
                                                                k - k // 2):
            bits[i] ^= 1
        tables.append(PrimeTable(true.limit, bytes(bits)))
    return tables


def library_digest(tables) -> str:
    """sha256 over ``range_verify`` (every claim) and ``comet_rows`` on each
    of ``tables``, four ranges and five chunk sizes."""
    h = hashlib.sha256()
    for table in tables:
        for lo, hi in ((6, 2_000), (8, 8), (6, 6), (1_000, 1_302)):
            for chunk_evens in (1, 2, 3, 64, 8192):
                outs = range_verify(lo, hi, table=table, chunk_evens=chunk_evens)
                h.update(json.dumps([o.as_dict() for o in outs]).encode())
                rows = comet_rows(lo, hi, table=table, chunk_evens=chunk_evens)
                h.update(json.dumps(rows).encode())
    return h.hexdigest()


def test_library_outputs_match_their_golden_digest():
    assert library_digest(_tables()[:1]) == GOLDEN["library_true"]


def test_library_outputs_on_flipped_tables_match_their_golden_digest():
    assert library_digest(_tables()[1:]) == GOLDEN["library_doctored"]


def test_golden_commands_are_the_checked_list():
    commands = [c["args"] for c in GOLDEN["cli"]]
    assert len(commands) == len(set(commands)) == 30
    assert {c.split()[0] for c in commands} == {"analyze", "census", "verify", "comet"}


if __name__ == "__main__":
    os.environ.pop(ENV_WORKERS, None)
    for command in GOLDEN["cli"]:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(command["args"].split())
        print(cli_digest(out.getvalue().encode(), code), command["args"])
    tables = _tables()
    print(library_digest(tables[:1]), "library_true")
    print(library_digest(tables[1:]), "library_doctored")
