"""The package's value types behave as the frozen dataclasses they replace.

Each one takes its fields positionally or by keyword, with the same
defaults; compares equal only to an instance of its own class with equal
fields; hashes as the tuple of its fields; refuses assignment and deletion;
and pickles through its constructor.
"""

import inspect
import pickle

import pytest

from goldbach_ab import (
    ClaimId,
    ClaimOutcome,
    CompanionRecord,
    EvenFactorization,
    EvenTarget,
    ExponentVector,
    FactorMultiset,
    MidpointReport,
    OddPartition,
    PairingReport,
    PartitionCensus,
    PartitionKind,
    PrimeSplit,
    PrimeTable,
    UsageError,
    build_table,
)
from goldbach_ab.claims import CLAIM_SPECS, ClaimSpec, MidpointValue, _ChunkContext

TABLE = build_table(101)
SPEC = CLAIM_SPECS[ClaimId.S_BOUND]
VECTOR = ExponentVector((3, 7), ((1, 1),))
MIDPOINTS = (MidpointValue(3, True, None), MidpointValue(7, True, VECTOR))

# class -> its fields, in constructor order, with one valid value each
RECORDS = {
    FactorMultiset: {"factors": ((3, 1), (5, 2))},
    PrimeTable: {"limit": TABLE.limit, "odd_bits": TABLE.odd_bits},
    EvenTarget: {"two_n": 10},
    EvenFactorization: {"m": 1, "b_factors": FactorMultiset(((5, 1),))},
    PrimeSplit: {"two_n": 10, "a_primes": (3, 7), "b_primes": (5,), "s": 2},
    OddPartition: {"a": 3, "b": 7, "kind": PartitionKind.A},
    PartitionCensus: {"two_n": 10, "total": 2, "a_count": 1, "b_count": 1,
                      "mixed_count": 0, "goldbach_count": 2,
                      "goldbach_pairs": ((3, 7), (5, 5))},
    ClaimOutcome: {"claim_id": ClaimId.S_BOUND, "lo": 10, "hi": 10,
                   "status": "pass", "payload": {"two_n": 10, "s": 2}},
    ExponentVector: {"basis": (3, 7), "nonzero": ((0, 2),)},
    CompanionRecord: {"p": 3, "companion": 7, "companion_is_prime": True,
                      "exps": VECTOR},
    PairingReport: {"pairs": ((3, 7),), "unpaired": ()},
    MidpointValue: {"value": 3, "is_prime": True, "exps": None},
    MidpointReport: {"parity": "odd", "values": MIDPOINTS, "both_prime_pair": (3, 7)},
    _ChunkContext: {"c_lo": 8, "c_hi": 20, "pi": 1, "departures": (),
                    "digits": None, "table": TABLE},
    ClaimSpec: {"verdict": SPEC.verdict, "kernel": SPEC.kernel,
                "aliases": ("sbounds",)},
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    fields = RECORDS[cls]
    values = tuple(fields.values())
    assert tuple(inspect.signature(cls).parameters) == tuple(fields)
    obj = cls(*values)
    assert cls(**fields) == obj
    assert tuple(getattr(obj, name) for name in fields) == values

    twin = type("Twin", (cls,), {})(*values)
    assert obj == cls(*values) and not obj != cls(*values)
    assert obj != twin and twin != obj  # equal only within one class
    assert obj != values
    try:
        want = hash(values)
    except TypeError:  # a field that cannot hash, as a dict payload
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == want

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, next(iter(fields)))
    assert tuple(getattr(obj, name) for name in fields) == values

    back = pickle.loads(pickle.dumps(obj))
    assert back == obj and type(back) is cls
    assert repr(obj).startswith(f"{cls.__qualname__}({next(iter(fields))}=")


def test_defaults_and_checks():
    assert ClaimSpec(SPEC.verdict, SPEC.kernel).aliases == ()
    assert ClaimSpec(verdict=SPEC.verdict, kernel=SPEC.kernel) == ClaimSpec(
        SPEC.verdict, SPEC.kernel, ())
    for bad in (7, 11, 4, 0, -6):
        with pytest.raises(UsageError):
            EvenTarget(bad)
    assert EvenTarget(two_n=6).n == 3


def test_cached_properties_cache_and_pickling_drops_them():
    table = PrimeTable(TABLE.limit, TABLE.odd_bits)
    assert table.prime_list is table.prime_list
    assert table.small_primes == (2, 3, 5, 7)
    assert table.departures is table.departures and table.departures == ()
    assert {"prime_list", "small_primes", "departures"} <= set(vars(table))
    back = pickle.loads(pickle.dumps(table))
    assert back == table and "prime_list" not in vars(back)
    assert "departures" not in vars(back)
    assert "departures" not in vars(pickle.loads(pickle.dumps(TABLE)))

    chunk = _ChunkContext(8, 20, 1, None, None, TABLE)
    assert chunk.facs is chunk.facs and chunk.s is chunk.s
    assert "facs" in vars(chunk)
    with pytest.raises(AttributeError):
        chunk.facs = []
