"""Golden outputs: sha256 digests that pin default output byte for byte.

``golden.json`` holds, for each CLI command, the sha256 of its stdout plus
its exit code, and one digest over the library's range outputs on true and
bit-flipped tables.  The digests were taken before the range kernels moved
onto the chunk context's table reader, and any change to what a command
prints or returns shows here.  CI runs the same command list through the
installed ``goldbach-ab`` console script.
"""

import hashlib
import json
import random
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
    """A true table, the same with its explicit prime tuple, and twelve with
    1-6 flipped bits, half of them with the true table's prime tuple; half
    the flips fall on the odds below 80, where the scan's primes sit."""
    true = build_table(4_001)
    tables = [true, PrimeTable(true.limit, true.odd_bits, true.prime_list)]
    for k in range(1, 7):
        for explicit in (False, True):
            rng = random.Random(10 * k + explicit)
            bits = bytearray(true.odd_bits)
            for i in rng.sample(range(1, 40), k // 2) + rng.sample(range(40, 1_000),
                                                                    k - k // 2):
                bits[i] ^= 1
            tables.append(PrimeTable(true.limit, bytes(bits),
                                     true.prime_list if explicit else None))
    return tables


def _outcome(run, *args, **kwargs):
    """What ``run`` returns, or the ValueError it raises: a table that marks
    a composite below its square root can break the factor sieve of a range
    run, and that is output too."""
    try:
        return run(*args, **kwargs)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def library_digest() -> str:
    """sha256 over ``range_verify`` (every claim) and ``comet_rows`` on each
    table of ``_tables``, four ranges and five chunk sizes."""
    h = hashlib.sha256()
    for table in _tables():
        for lo, hi in ((6, 2_000), (8, 8), (6, 6), (1_000, 1_302)):
            for chunk_evens in (1, 2, 3, 64, 8192):
                outs = _outcome(range_verify, lo, hi, table=table,
                                chunk_evens=chunk_evens)
                if isinstance(outs, list):
                    outs = [o.as_dict() for o in outs]
                h.update(json.dumps(outs).encode())
                rows = _outcome(comet_rows, lo, hi, table=table,
                                chunk_evens=chunk_evens)
                h.update(json.dumps(rows).encode())
    return h.hexdigest()


def test_library_outputs_match_their_golden_digest():
    assert library_digest() == GOLDEN["library"]


def test_golden_commands_are_the_checked_list():
    commands = [c["args"] for c in GOLDEN["cli"]]
    assert len(commands) == len(set(commands)) == 30
    assert {c.split()[0] for c in commands} == {"analyze", "census", "verify", "comet"}
