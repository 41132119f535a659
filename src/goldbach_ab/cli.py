"""Command line front end: per-target reports, range verification, comet export.

Exit codes: 0 when every selected claim holds (boundary cases permitted),
1 when a counterexample was found, 2 on usage, I/O and memory errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from contextlib import nullcontext
from functools import cache, partial
from itertools import chain
from operator import itemgetter, mod

from .claims import (
    ALL_CLAIMS,
    CLAIM_SPECS,
    ClaimId,
    ClaimOutcome,
    TargetContext,
    _companion_rows,
    comet_rows,
    evaluate_claims,
    range_verify,
)
from .classify import EvenTarget, factorize_even
from .errors import CounterexampleFound, UsageError
from .partition import goldbach_pairs, partition_total
from .sieve import build_table

ENV_WORKERS = "GOLDBACH_AB_WORKERS"

COMET_HEADER = "two_n,r,s,a_count,b_count"

# Each claim's full name without underscores, and its short names.
_CLAIM_TOKENS = {
    token: cid
    for cid, spec in CLAIM_SPECS.items()
    for token in (cid.value.replace("_", ""), *spec.aliases)
}


def parse_claims(text: str) -> tuple[ClaimId, ...]:
    """Comma-separated claim names (hyphens/underscores ignored); every
    token must name a claim, and 'all' anywhere selects every claim."""
    picked: set[ClaimId] = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        norm = token.lower().replace("-", "").replace("_", "")
        if norm == "all":
            picked.update(ALL_CLAIMS)
        elif norm in _CLAIM_TOKENS:
            picked.add(_CLAIM_TOKENS[norm])
        else:
            raise UsageError(f"unknown claim {token!r}")
    if not picked:
        raise UsageError(f"no claims selected from {text!r}")
    return tuple(c for c in ALL_CLAIMS if c in picked)


def _resolve_range(positional: list[int], range_flag: str | None) -> tuple[int, int]:
    if positional and range_flag:
        raise UsageError("give either positional LO HI or --range, not both")
    if range_flag:
        parts = range_flag.split("..")
        if len(parts) != 2:
            raise UsageError(f"--range expects LO..HI, got {range_flag!r}")
        try:
            return int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise UsageError(f"--range expects integers, got {range_flag!r}") from exc
    if len(positional) == 2:
        return positional[0], positional[1]
    raise UsageError("a range is required: positional LO HI or --range LO..HI")


def _range_args(args: argparse.Namespace) -> tuple[int, int, int]:
    """(lo, hi, workers) of a verify or comet run; workers come from
    --workers, else from GOLDBACH_AB_WORKERS, else 1."""
    workers = args.workers
    if workers is None:
        raw = os.environ.get(ENV_WORKERS, "1")
        try:
            workers = int(raw)
        except ValueError as exc:
            raise UsageError(f"{ENV_WORKERS} must be an integer, got {raw!r}") from exc
    return (*_resolve_range(args.bounds, args.range_flag), workers)


def _emit(pieces, out: str | None) -> None:
    """Write each str of ``pieces``, in order, to ``out`` or to stdout."""
    sink = nullcontext(sys.stdout) if out is None else open(out, "w", newline="")
    with sink as fh:
        for piece in pieces:
            fh.write(piece)


def _flat_csv(report: dict) -> str:
    """field,value rows; nested keys joined with dots, lists JSON-encoded.
    Flat companion rows, as ``_analyze_doc`` leaves them, are written as the
    objects that ``build_analyze_report`` makes of them, one template each."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["field", "value"])

    def walk(prefix: str, node) -> None:
        if isinstance(node, dict):
            for key, val in node.items():
                walk(f"{prefix}.{key}" if prefix else str(key), val)
        elif prefix == "companions" and node and isinstance(node[0], tuple):
            writer.writerow([prefix, "[%s]" % _format_companions(
                node, _compact_companion_template, ",")])
        elif isinstance(node, (list, tuple)):
            writer.writerow([prefix, json.dumps(node, separators=(",", ":"))])
        else:
            writer.writerow([prefix, node])

    walk("", report)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# analyze / census report assembly
# ---------------------------------------------------------------------------


def _analyze_doc(t: EvenTarget, table) -> dict:
    """The analyze report of 2N with its companions left as the flat rows of
    the factor walk; every per-target object is built once, in one
    TargetContext that the claim verdicts read too."""
    ctx = TargetContext(t, table)
    fac = factorize_even(t, table)
    split = ctx.split
    report: dict = {
        "two_n": t.two_n,
        "n": t.n,
        "factorization": {
            "m": fac.m,
            "odd_factors": {str(p): e for p, e in fac.b_factors},
        },
        "prime_split": {
            "s": split.s,
            "a_primes": list(split.a_primes),
            "b_primes": list(split.b_primes),
        },
        "census": _census_dict(ctx.census),
    }
    try:
        report["companions"] = _companion_rows(t, split, table)
    except CounterexampleFound as exc:
        report["companions"] = {"error": str(exc), "witness": exc.witness}
    pairing = ctx.pairing
    report["pairing"] = {
        "pairs": [list(p) for p in pairing.pairs],
        "unpaired": list(pairing.unpaired),
    }
    mid = ctx.midpoints
    if mid is not None:
        report["midpoints"] = {
            "parity": mid.parity,
            "values": [
                {
                    "value": v.value,
                    "is_prime": v.is_prime,
                    "exponents": v.exps and v.exps.as_prime_dict(),
                }
                for v in mid.values
            ],
            "both_prime_pair": mid.both_prime_pair and list(mid.both_prime_pair),
        }
    else:
        report["midpoints"] = None
    report["claims"] = [o.as_dict() for o in evaluate_claims(t, table, context=ctx)]
    return report


def build_analyze_report(t: EvenTarget, table) -> dict:
    """The analyze report of 2N with one object per companion: the dict form
    that tests compare against; analyze writes both formats straight from
    the rows."""
    report = _analyze_doc(t, table)
    rows = report["companions"]
    if isinstance(rows, list):
        report["companions"] = [
            {"p": p, "companion": c, "companion_is_prime": is_prime,
             "exponents": dict(zip(facs[::2], facs[1::2]))}
            for p, c, is_prime, *facs in rows
        ]
    return report


def _census_dict(cen) -> dict:
    return {
        "total": cen.total,
        "a_count": cen.a_count,
        "b_count": cen.b_count,
        "mixed_count": cen.mixed_count,
        "goldbach_count": cen.goldbach_count,
        "goldbach_pairs": [list(p) for p in cen.goldbach_pairs],
    }


# json.dumps with indent runs the pure-Python encoder, element by element,
# and returns the whole document as one string.  The long arrays of a
# document are written here instead, one join or one %-template per element
# and one piece per batch of elements, between the pieces of the dumped
# skeleton that marker strings split; the pieces join to the bytes of
# json.dumps(doc, indent=2).

_MARKER = re.compile(r'"\\u0000(\d+)"')  # json.dumps of "\0<i>"
_BATCH = 512  # array elements per piece


def _array(items, depth: int, render):
    """Pieces of the list ``items`` nested ``depth`` deep in an indented dump;
    ``render(batch, pad)`` joins a batch's elements, each indented by ``pad``,
    with ",\n"."""
    if not items:
        yield "[]"
        return
    pad = "  " * (depth + 1)
    sep = "[\n"
    for i in range(0, len(items), _BATCH):
        yield sep + render(items[i:i + _BATCH], pad)
        sep = ",\n"
    yield "\n" + "  " * depth + "]"


def _ints(xs, pad: str) -> str:
    return pad + (",\n" + pad).join(map(str, xs))


def _pairs(pairs, pad: str) -> str:
    inner = pad + "  "
    item = f"{pad}[\n{inner}%d,\n{inner}%d\n{pad}]"
    return ",\n".join([item % (p, q) for p, q in pairs])


def _companion_template(pad: str, width: int, is_prime: bool) -> str:
    """%-template of a flat companion row (p, c, is_prime, q1, e1, ...) of
    ``width`` items; the flag picks the template, so %.0s consumes it."""
    i2, i3 = pad + "  ", pad + "    "
    exps = ",\n".join([f'{i3}"%d": %d'] * ((width - 3) // 2))
    exps = f"{{\n{exps}\n{i2}}}" if exps else "{}"
    return (f'{pad}{{\n{i2}"p": %d,\n{i2}"companion": %d,\n'
            f'{i2}"companion_is_prime": {"true" if is_prime else "false"}%.0s,\n'
            f'{i2}"exponents": {exps}\n{pad}}}')


def _compact_companion_template(width: int, is_prime: bool) -> str:
    """The same row as json.dumps writes it with separators (",", ":")."""
    exps = ",".join(['"%d":%d'] * ((width - 3) // 2))
    return (f'{{"p":%d,"companion":%d,"companion_is_prime":'
            f'{"true" if is_prime else "false"}%.0s,"exponents":{{{exps}}}}}')


def _format_companions(rows, template, sep: str) -> str:
    """Flat companion rows joined by ``sep``, each formatted with
    template(width, is_prime), which is built once per (width, is_prime)."""
    shapes = list(zip(map(len, rows), map(itemgetter(2), rows)))
    tpl = {shape: template(*shape) for shape in set(shapes)}
    return sep.join(map(mod, map(tpl.__getitem__, shapes), rows))


def _companions(rows, pad: str) -> str:
    return _format_companions(rows, partial(_companion_template, pad), ",\n")


def _comet_objects(rows, pad: str) -> str:
    fields = ",\n".join([f'{pad}  "{k}": %d' for k in COMET_HEADER.split(",")])
    item = f"{pad}{{\n{fields}\n{pad}}}"
    return ",\n".join([item % row for row in rows])


_ANALYZE_ARRAYS = {
    ("prime_split", "a_primes"): _ints,
    ("prime_split", "b_primes"): _ints,
    ("census", "goldbach_pairs"): _pairs,
    ("companions",): _companions,
    ("pairing", "pairs"): _pairs,
    ("pairing", "unpaired"): _ints,
    ("claims", ALL_CLAIMS.index(ClaimId.PAIRING_NON_EMPTY), "payload", "pairs"): _pairs,
}

_CENSUS_ARRAYS = {("goldbach_pairs",): _pairs}


def _report_json(doc: dict, arrays: dict):
    """Pieces of json.dumps(doc, indent=2) + newline, with the list at each
    path of ``arrays`` (dict keys and list indices) written by ``_array`` and
    its renderer; ``doc`` is left as it is."""
    skeleton = dict(doc)
    lists = []
    for path, render in arrays.items():
        *parents, key = path
        node = skeleton
        try:
            for k in parents:  # copy the containers on the path, not the caller's
                child = node[k].copy()
                node[k] = child
                node = child
            items = node[key]
        except LookupError:  # no such path, as in the witness of a failed claim
            continue
        if isinstance(items, list):  # not an {"error", "witness"}
            node[key] = f"\0{len(lists)}"
            lists.append((items, len(path), render))
    parts = _MARKER.split(json.dumps(skeleton, indent=2) + "\n")
    yield parts[0]
    for i, tail in zip(parts[1::2], parts[2::2]):
        yield from _array(*lists[int(i)])
        yield tail


def cmd_analyze(args: argparse.Namespace) -> int:
    t = EvenTarget(args.two_n)
    report = _analyze_doc(t, build_table(t.two_n + 1))
    if args.format == "csv":
        _emit([_flat_csv(report)], args.out)
    else:
        _emit(_report_json(report, _ANALYZE_ARRAYS), args.out)
    failed = any(o["status"] == "fail" for o in report["claims"])
    return 1 if failed else 0


def cmd_census(args: argparse.Namespace) -> int:
    """A census CSV row is the comet row of 2N; JSON takes its counts from the
    same row and adds the Goldbach pairs.  No partition is mixed, by algebra
    (``partition.census``), so the row's counts add up to the total."""
    t = EvenTarget(args.two_n)
    table = build_table(t.two_n + 1)
    (row,) = comet_rows(t.two_n, t.two_n, table=table)
    _, r, s, a_count, b_count = row
    if args.format == "csv":
        _emit(comet_csv([row]), args.out)
    else:
        pairs = goldbach_pairs(t.two_n, table)
        report = {"two_n": t.two_n, "s": s, "total": partition_total(t.two_n),
                  "a_count": a_count, "b_count": b_count, "mixed_count": 0,
                  "goldbach_count": r, "goldbach_pairs": list(pairs)}
        _emit(_report_json(report, _CENSUS_ARRAYS), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify / comet
# ---------------------------------------------------------------------------


def _outcome_line(o: ClaimOutcome) -> str:
    bits = [f"claim {o.claim_id.value}: {o.status}"]
    p = o.payload
    if "evens_checked" in p:
        bits.append(f"checked {p['evens_checked']} evens")
    if o.status == "fail":
        bits.append(f"counterexample {p.get('counterexample')}")
    if "min_s" in p:
        bits.append(f"min s={p['min_s']['s']} at 2N={p['min_s']['two_n']}")
    if "max_s" in p:
        bits.append(f"max s={p['max_s']['s']} at 2N={p['max_s']['two_n']}")
    if "boundary_cases" in p:
        bits.append(f"boundary at {[b['two_n'] for b in p['boundary_cases']]}")
    return "; ".join(bits)


def cmd_verify(args: argparse.Namespace) -> int:
    lo, hi, workers = _range_args(args)
    if args.claims and args.all:
        raise UsageError("give either --claims or --all, not both")
    claims = parse_claims(args.claims) if args.claims else ALL_CLAIMS
    run_set = tuple(c for c in ALL_CLAIMS if c in {*claims, ClaimId.S_BOUND})
    outcomes = range_verify(lo, hi, claims=run_set, workers=workers)
    by_id = {o.claim_id: o for o in outcomes}
    selected = [by_id[c] for c in claims]
    exit_code = 0 if all(o.ok for o in selected) else 1
    if args.format == "json":
        doc = {
            "lo": lo,
            "hi": hi,
            "workers": workers,
            "outcomes": [o.as_dict() for o in selected],
            "s_stats": {
                k: by_id[ClaimId.S_BOUND].payload.get(k) for k in ("min_s", "max_s")
            },
            "exit_code": exit_code,
        }
        _emit([json.dumps(doc, indent=2) + "\n"], args.out)
        return exit_code
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["claim", "status", "evens_checked", "payload"])
        for o in selected:
            writer.writerow(
                [
                    o.claim_id.value,
                    o.status,
                    o.payload.get("evens_checked", 1),
                    json.dumps(o.payload, separators=(",", ":")),
                ]
            )
        _emit([buf.getvalue()], args.out)
        return exit_code
    lines = [f"verify [{lo}, {hi}] with {workers} worker(s)"]
    lines += [_outcome_line(o) for o in selected]
    sp = by_id[ClaimId.S_BOUND].payload
    passed = sum(1 for o in selected if o.ok)
    summary = f"summary: {passed}/{len(selected)} claims hold"
    if sp.get("min_s"):
        summary += (
            f"; min s={sp['min_s']['s']} at 2N={sp['min_s']['two_n']}"
            f"; max s={sp['max_s']['s']} at 2N={sp['max_s']['two_n']}"
        )
    lines.append(summary)
    _emit(["\n".join(lines) + "\n"], args.out)
    return exit_code


def comet_csv(rows):
    """Pieces of the comet CSV of ``rows``: the header, then one piece per
    batch of lines."""
    yield COMET_HEADER + "\n"
    for i in range(0, len(rows), _BATCH):
        batch = rows[i:i + _BATCH]
        yield "".join([f"{t},{r},{s},{a},{b}\n" for t, r, s, a, b in batch])


def cmd_comet(args: argparse.Namespace) -> int:
    lo, hi, workers = _range_args(args)
    rows = comet_rows(lo, hi, workers=workers)
    if args.format == "json":
        _emit(chain(_array(rows, 0, _comet_objects), ["\n"]), args.out)
    else:
        _emit(comet_csv(rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="goldbach-ab",
        description="Classify, census and verify Goldbach partitions of even "
        "numbers by coprimality type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("analyze", cmd_analyze, "full structural report for one 2N", ("json", "csv")),
        ("census", cmd_census, "partition census for one 2N", ("json", "csv")),
        ("verify", cmd_verify, "verify claims over an even range",
         ("text", "json", "csv")),
        ("comet", cmd_comet, "export two_n,r,s,a_count,b_count rows", ("csv", "json")),
    )
    for name, run, help_text, formats in commands:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if name in ("analyze", "census"):
            p.add_argument("two_n", type=int)
        else:
            p.add_argument("bounds", type=int, nargs="*", metavar="LO HI")
            p.add_argument("--range", dest="range_flag", default=None,
                           metavar="LO..HI")
            p.add_argument("--workers", type=int, default=None,
                           help=f"parallel workers for the range run "
                           f"(default: ${ENV_WORKERS}, else 1)")
        if name == "verify":
            p.add_argument("--claims", default=None,
                           help="comma-separated claim names, or 'all'")
            p.add_argument("--all", action="store_true", help="run every claim")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="write output to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (UsageError, OSError, MemoryError) as exc:
        if isinstance(exc, BrokenPipeError):  # so that no flush at exit fails again
            sys.stdout = open(os.devnull, "w")
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
