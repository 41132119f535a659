"""A fresh process imports only what every command needs.

``import goldbach_ab.cli`` loads neither the dataclass machinery nor
``multiprocessing`` nor ``decimal``: ``claims`` imports ``multiprocessing``
when a run first pools and ``_decimal`` when ``comet_rows`` first squares.
Both stay module attributes of ``claims``, and a value set there before the
first use wins over the import.  Each check runs in its own interpreter,
started without ``site`` so that no ``.pth`` file preloads a module.
"""

import json
import os
import subprocess
import sys
import textwrap

import goldbach_ab

SRC = os.path.dirname(os.path.dirname(goldbach_ab.__file__))
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

HEAVY = ("multiprocessing", "dataclasses", "inspect", "decimal", "_decimal")


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON document."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_heavy_module():
    loaded = _fresh(f"""
        import json, sys
        import goldbach_ab, goldbach_ab.cli
        print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
    """)
    assert loaded == []


def test_pools_load_multiprocessing_and_squares_load_decimal():
    seen = _fresh("""
        import json, sys
        from goldbach_ab import ClaimId, claims, comet_rows, range_verify
        claims._usable_cpus = lambda: 2
        seen = {}
        picked = (ClaimId.S_BOUND, ClaimId.GOLDBACH_WITNESS)
        one = range_verify(8, 20_000, claims=picked, chunk_evens=2_500)
        seen["in_process"] = "multiprocessing" in sys.modules
        two = range_verify(8, 20_000, claims=picked, workers=2, chunk_evens=2_500)
        seen["pooled"] = "multiprocessing" in sys.modules
        seen["same"] = [o.as_dict() for o in one] == [o.as_dict() for o in two]
        comet_rows(8, 2_000)  # the windows cost less than a square here
        seen["windows"] = "_decimal" in sys.modules
        comet_rows(8, 20_000)
        seen["squared"] = "_decimal" in sys.modules
        print(json.dumps(seen))
    """)
    assert seen == {"in_process": False, "pooled": True, "same": True,
                    "windows": False, "squared": True}


def test_a_decimal_set_to_none_first_takes_the_windows():
    seen = _fresh("""
        import json, sys
        from goldbach_ab import claims, comet_rows
        square = claims._pair_count_digits
        claims._decimal = None
        claims._pair_count_digits = None  # a square would call it
        got = comet_rows(8, 20_000)
        loaded = "_decimal" in sys.modules
        del claims._decimal  # the next read imports it
        claims._pair_count_digits = square
        want = comet_rows(8, 20_000)
        print(json.dumps({"same": got == want, "loaded": loaded,
                          "squared": "_decimal" in sys.modules}))
    """)
    assert seen == {"same": True, "loaded": False, "squared": True}


def test_a_multiprocessing_set_first_is_the_one_that_pools():
    seen = _fresh("""
        import json, sys
        from goldbach_ab import claims, range_verify

        class InProcessPool:
            sizes = []

            def __init__(self, processes, initializer, initargs):
                self.sizes.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return [fn(item) for item in items]

        class Stub:
            Pool = InProcessPool

        want = [o.as_dict() for o in range_verify(8, 20_000, chunk_evens=2_500)]
        claims._usable_cpus = lambda: 2
        claims.multiprocessing = Stub
        got = [o.as_dict() for o in range_verify(8, 20_000, workers=2,
                                                 chunk_evens=2_500)]
        print(json.dumps({"same": got == want, "sizes": InProcessPool.sizes,
                          "loaded": "multiprocessing" in sys.modules}))
    """)
    assert seen == {"same": True, "sizes": [2], "loaded": False}


def test_the_benchmark_tracer_times_the_lazy_pool():
    """perfbench's tracer reads ``claims.multiprocessing`` before any pool has
    started and swaps in its timed stand-in, which the pooled run must use;
    the real module is back in place afterwards."""
    seen = _fresh(f"""
        import json, sys
        sys.path.insert(0, {PERFBENCH!r})
        import spans
        from goldbach_ab import claims, range_verify
        claims._usable_cpus = lambda: 2
        tracer = spans.Tracer()
        with spans.patched(tracer, []):
            range_verify(8, 20_000, workers=2, chunk_evens=2_500)
        real = sys.modules["multiprocessing"]
        print(json.dumps({{"starts": tracer.counts["claims.pool.starts"],
                          "restored": claims.multiprocessing is real}}))
    """)
    assert seen == {"starts": 1, "restored": True}
