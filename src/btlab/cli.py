"""btlab command line: deterministic JSON or aligned-table reports.

Each command returns one JSON document; ``main`` prints it as JSON or
through the command's table renderer, a pure function of the document.

Exit codes: 0 success, 1 when the document's verdict is "fail" or a
VerificationError escapes, 2 input error or unwritable --out.

Output is byte-identical for identical inputs and seed: orbit, segment,
word and JSON key orders are all canonical, and the verify sweep draws
from the documented splitmix64 stream.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from . import witt
from .errors import InputError, VerificationError, check_range
from .graph_oracle import level_mismatch, oracle_components
from .invariants import InvariantReport, check_level, invariant_report, level_histogram
from .kraft import enumerate_bt1, kraft_type
from .permutations import Permutation, Signature, parse_permutation
from .rng import SplitMix64
from .sweep import verification_sweep
from .witt import (
    WittVec,
    check_prime,
    frobenius,
    law_apply,
    negation_polynomials,
    p_multiple,
    product_polynomials,
    ring_iso_table,
    sum_polynomials,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
)


def _report_doc(
    perm: Permutation, sig: Signature, report: InvariantReport, max_level: int, p: int | None
) -> dict:
    doc = {"h": sig.h, "c": sig.c, "d": sig.d, "perm": perm.one_line()}
    if p is not None:
        doc["p"] = p
    doc["orbits"] = [
        {
            "rep": prof.orbit[0],
            "points": prof.orbit,
            "epsilon": prof.eps,
            "circular_level": prof.circular_level,
            "segments": [
                {"start": s.start, "length": s.length, "level": s.level}
                for s in prof.segments
            ],
            "a": level_histogram(prof.segments, max_level),
        }
        for prof in report.profiles
    ]
    doc["gamma"] = report.gamma
    doc["c_exponent"] = report.c_exponent
    if p is not None:
        doc["components"] = [f"{p}^{c}" for c in report.c_exponent]
    doc["isomorphism_number"] = report.isomorphism_number
    doc["specializing_height"] = report.specializing_height
    return doc


def _aligned(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _report_table(doc: dict) -> str:
    lines = [f"perm  {doc['perm']}", f"h={doc['h']} c={doc['c']} d={doc['d']}"]
    rows = [["orbit", "size", "epsilon", "circ", "segments(start:len:level)", "a"]]
    for orb in doc["orbits"]:
        segs = (
            " ".join(f"{s['start']}:{s['length']}:{s['level']}" for s in orb["segments"])
            or "-"
        )
        circ = "-" if orb["circular_level"] is None else str(orb["circular_level"])
        rows.append(
            [
                "(" + ",".join(map(str, orb["rep"])) + ")",
                str(len(orb["points"])),
                "(" + ",".join(map(str, orb["epsilon"])) + ")",
                circ,
                segs,
                "(" + ",".join(map(str, orb["a"])) + ")",
            ]
        )
    lines.append(_aligned(rows))
    table = [["m"], ["gamma"], ["c_exponent"]]
    for m, (g, ce) in enumerate(zip(doc["gamma"], doc["c_exponent"]), start=1):
        table[0].append(str(m))
        table[1].append(str(g))
        table[2].append(str(ce))
    if "components" in doc:
        table.append(["components"] + doc["components"])
    lines.append(_aligned(table))
    lines.append(_aligned([[k, str(doc[k])] for k in ("isomorphism_number", "specializing_height")]))
    return "\n".join(lines)


def cmd_invariants(args) -> dict:
    check_level(args.max_level, "--max-level")
    if args.p is not None:
        check_prime(args.p)
    sig = Signature(c=args.c, d=args.d)
    perm = parse_permutation(args.perm, degree=sig.h)
    report = invariant_report(perm, sig, args.max_level)
    return _report_doc(perm, sig, report, args.max_level, args.p)


def cmd_oracle(args) -> dict:
    sig = Signature(c=args.c, d=args.d)
    perm = parse_permutation(args.perm, degree=sig.h)
    level = args.level
    check_level(level, "--level")
    report = invariant_report(perm, sig, level)
    result = oracle_components(perm, sig, level)
    doc = _report_doc(perm, sig, report, level, None)
    per_orbit = [
        {
            "rep": row.rep,
            "free_paths": row.free_paths,
            "zeroed_vertices": row.zeroed_vertices,
            "cycles": row.cycles,
        }
        for row in result.rows
    ]
    doc["oracle"] = {
        "dimension": result.free_paths,
        "exponent": result.exponent,
        "per_orbit": per_orbit,
    }
    doc["verdict"] = "fail" if level_mismatch(report, result) else "pass"
    return doc


def _oracle_table(doc: dict) -> str:
    return "\n".join([_report_table(doc), _aligned([
        ["oracle dimension", str(doc["oracle"]["dimension"])],
        ["oracle exponent", str(doc["oracle"]["exponent"])],
        ["verdict", doc["verdict"]],
    ])])


def cmd_verify(args) -> dict:
    checks = verification_sweep(args.samples, args.max_h, args.max_level, args.seed)
    failures = [{**mis._asdict(), "perm": mis.perm.one_line()} for mis in checks if mis]
    return {
        "samples": args.samples,
        "max_h": args.max_h,
        "max_level": args.max_level,
        "seed": args.seed,
        "failures": failures,
        "verdict": "fail" if failures else "pass",
    }


def _verify_table(doc: dict) -> str:
    rows = [[k, str(doc[k])] for k in ("samples", "max_h", "max_level", "seed")]
    rows += [["failures", str(len(doc["failures"]))], ["verdict", doc["verdict"]]]
    *lines, verdict = _aligned(rows).split("\n")
    for f in doc["failures"]:
        lines.append(
            f"  perm={f['perm']} c={f['c']} d={f['d']} m={f['m']} "
            f"{f['kind']}: formula={f['formula']} oracle={f['oracle']}"
        )
    return "\n".join(lines + [verdict])


def cmd_enumerate_bt1(args) -> dict:
    sig = Signature(c=args.c, d=args.d)
    rendered = [cls.render() for cls in enumerate_bt1(sig)]
    return {"c": sig.c, "d": sig.d, "count": len(rendered), "classes": rendered}


def cmd_kraft_type(args) -> dict:
    sig = Signature(c=args.c, d=args.d)
    perm = parse_permutation(args.perm, degree=sig.h)
    cls = kraft_type(perm, sig)
    return {
        "h": sig.h,
        "c": sig.c,
        "d": sig.d,
        "perm": perm.one_line(),
        "class": cls.render(),
        "words": cls.words,
    }


def cmd_witt_polys(args) -> dict:
    check_range(args.len, "--len", 1)
    p, n = args.p, args.len
    return {
        "p": p,
        "n": n,
        "sum": [poly.render() for poly in sum_polynomials(p, n)],
        "product": [poly.render() for poly in product_polynomials(p, n)],
        "negation": [poly.render() for poly in negation_polynomials(p, n)],
    }


def _witt_polys_table(doc: dict) -> str:
    return "\n".join(
        f"{name}_{l} = {text}"
        for name, key in (("S", "sum"), ("P", "product"), ("I", "negation"))
        for l, text in enumerate(doc[key])
    )


def _parse_components(text: str, p: int, n: int, flag: str) -> WittVec:
    try:
        comps = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InputError(f"{flag} must be a comma-separated integer list, got {text!r}")
    if len(comps) != n:
        raise InputError(f"{flag} has {len(comps)} components, expected {n}")
    return WittVec(p, comps)


def cmd_witt_eval(args) -> dict:
    check_range(args.len, "--len", 1)
    x = _parse_components(args.lhs, args.p, args.len, "--lhs")
    y = _parse_components(args.rhs, args.p, args.len, "--rhs")
    return {
        "p": args.p,
        "n": args.len,
        "lhs": x.components,
        "rhs": y.components,
        "sum": witt_add(x, y).components,
        "product": witt_mul(x, y).components,
        "neg_lhs": witt_neg(x).components,
        "frobenius_lhs": frobenius(x).components,
        "verschiebung_lhs": verschiebung(x).components,
        "p_multiple_lhs": p_multiple(x).components,
    }


def _witt_eval_table(doc: dict) -> str:
    rows = [[key, "(" + ",".join(map(str, val)) + ")"]
            for key, val in doc.items() if isinstance(val, tuple)]
    return f"p={doc['p']} n={doc['n']}\n" + _aligned(rows)


def _random_vec(rng: SplitMix64, p: int, n: int) -> WittVec:
    return WittVec(p, tuple(rng.below(p) for _ in range(n)))


#: witt-check draws two vectors per identity sample, multiplies twice in
#: Z/p^n and evaluates the sum law up to 2*log2(p) times: 10,000 samples
#: add 0.5 s at (2,2), 0.7 s at (2,6), 0.7 s at (7,2) and 0.5 s at (97,1)
#: to the ring table on a Xeon with Python 3.11.
MAX_WITT_SAMPLES = 10_000


def _p_fold_sum(x: WittVec) -> WittVec:
    """p*x as a p-fold Witt sum, by double-and-add over the sum law
    (``law_apply``), read from ``witt`` at call time.  F is the identity
    on W_n(F_p), so F(V(x)) and V(F(x)) are both V(x), as is ``p_multiple``,
    and ``witt-check`` tests V(x) = p*x once per sample; ``witt_add`` goes
    through Z/p^n, so only this route tests that identity against the sum
    law."""
    p = x.p
    laws = witt.sum_polynomials(p, x.n)
    acc = x.components
    for bit in bin(p)[3:]:
        acc = law_apply(laws, acc, acc, p)
        if bit == "1":
            acc = law_apply(laws, acc, x.components, p)
    return WittVec(p, acc)


def cmd_witt_check(args) -> dict:
    check_range(args.samples, "--samples", 0, MAX_WITT_SAMPLES)
    check_range(args.len, "--len", 1)
    p, n = args.p, args.len
    table = ring_iso_table(p, n)
    rng = SplitMix64(args.seed)
    identity_failures = []
    for _ in range(args.samples):
        x = _random_vec(rng, p, n)
        y = _random_vec(rng, p, n)
        if verschiebung(x) != _p_fold_sum(x):
            identity_failures.append(f"V(x) != p*x at x={x}")
        if witt_mul(x, verschiebung(y)) != verschiebung(witt_mul(frobenius(x), y)):
            identity_failures.append(f"x*V(y) != V(F(x)*y) at x={x} y={y}")
    tau_ok = all(
        witt_mul(teichmuller(a, p, n), teichmuller(b, p, n))
        == teichmuller(a * b, p, n)
        for a in range(p)
        for b in range(p)
    )
    if not tau_ok:
        identity_failures.append("Teichmueller lift is not multiplicative")
    ok = table.passed and not identity_failures
    return {
        "p": p,
        "n": n,
        "size": table.size,
        "ring_table": "pass" if table.passed else f"fail: {table.failure}",
        "identity_samples": args.samples,
        "identity_failures": identity_failures,
        "verdict": "pass" if ok else "fail",
    }


def _witt_check_table(doc: dict) -> str:
    rows = [[k, str(v)] for k, v in doc.items() if k != "identity_failures"]
    return "\n".join([_aligned(rows)] + [f"  {msg}" for msg in doc["identity_failures"]])


def _json(o) -> str:
    """``o`` as JSON indented by two spaces, byte for byte as the stdlib
    ``json`` module writes it, for the values a command returns; any
    other type, or a dict key that is not a ``str``, is a TypeError.
    Joined once, so no piece is copied into its container's text."""
    parts: list[str] = []
    _write(o, "\n", parts.append)
    return "".join(parts)


def _write(o, indent: str, put) -> None:
    """Pass the JSON pieces of ``o`` to ``put``.  A list of plain ints or
    strs, or of equal-length tuples of plain ints (an orbit's points, or
    an oracle row's ``Cycle`` records), is one piece, written without a
    call per leaf.  ``indent`` is the line
    break and indentation of the line ``o`` starts on."""
    t = type(o)
    if t is str:
        return put(_quote(o))
    if t is int:
        return put(int.__repr__(o))
    if t is bool:
        return put("true" if o else "false")
    if o is None:
        return put("null")
    inner = indent + "  "
    sep = "," + inner
    if t is dict:
        if not o:
            return put("{}")
        if set(map(type, o)) != {str}:
            raise TypeError("JSON object keys must be str")
        lead = "{" + inner
        for k, v in o.items():
            put(lead + _quote(k) + ": ")
            _write(v, inner, put)
            lead = sep
        return put(indent + "}")
    if not (t is list or t is tuple or isinstance(o, tuple)):
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    if not o:
        return put("[]")
    put("[" + inner)
    types = set(map(type, o))
    if types == {int}:
        put(sep.join(map(int.__repr__, o)))
    elif types == {str}:
        put(sep.join(map(_quote, o)))
    elif (all(issubclass(t, tuple) for t in types) and len(set(map(len, o))) == 1
          and set(map(type, flat := tuple(chain.from_iterable(o)))) == {int}):
        deeper = inner + "  "
        one = "[" + deeper + ("," + deeper).join(["%d"] * len(o[0])) + inner + "]"
        put(sep.join([one] * len(o)) % flat)
    else:
        lead = ""
        for v in o:
            put(lead)
            _write(v, inner, put)
            lead = sep
    put(indent + "]")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``error:`` line with exit 2, as
    every other refusal is reported; subcommand parsers inherit it."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; subcommand ``x-y`` runs ``cmd_x_y``."""
    parser = _Parser(
        prog="btlab",
        description="Invariants of truncated Barsotti-Tate groups from permutations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, perm=False):
        sp.add_argument("--format", choices=("json", "table"), default="table")
        sp.add_argument("--out", metavar="PATH", help="also write the output bytes here")
        if perm:
            sp.add_argument("--c", type=int, required=True)
            sp.add_argument("--d", type=int, required=True)
            sp.add_argument(
                "--perm",
                required=True,
                help="one-line (2,1,3) or cycle ((1 2)) form; cycles fix unlisted points",
            )

    sp = sub.add_parser("invariants", help="gamma table, c_m table, isomorphism number")
    add_common(sp, perm=True)
    sp.add_argument("--max-level", type=int, default=10, dest="max_level")
    sp.add_argument("--p", type=int, default=None, help="annotate component counts as p^c_m")
    sp.set_defaults(table=_report_table)

    sp = sub.add_parser("oracle", help="graph-oracle values and cross-check verdict")
    add_common(sp, perm=True)
    sp.add_argument("--level", type=int, default=1)
    sp.set_defaults(table=_oracle_table)

    sp = sub.add_parser("verify", help="seeded random sweep: formulas vs oracle")
    add_common(sp)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--max-h", type=int, default=7, dest="max_h")
    sp.add_argument("--max-level", type=int, default=4, dest="max_level")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(table=_verify_table)

    sp = sub.add_parser("enumerate-bt1", help="all classes for a signature")
    add_common(sp)
    sp.add_argument("--c", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(table=lambda doc: "\n".join(doc["classes"] + [str(doc["count"])]))

    sp = sub.add_parser("kraft-type", help="circular-word class of a permutation")
    add_common(sp, perm=True)
    sp.set_defaults(table=lambda doc: doc["class"])

    sp = sub.add_parser("witt-polys", help="sum/product/negation laws for (p, n)")
    add_common(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--len", type=int, required=True)
    sp.set_defaults(table=_witt_polys_table)

    sp = sub.add_parser("witt-eval", help="evaluate ring operations on two vectors")
    add_common(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--len", type=int, required=True)
    sp.add_argument("--lhs", required=True)
    sp.add_argument("--rhs", required=True)
    sp.set_defaults(table=_witt_eval_table)

    sp = sub.add_parser("witt-check", help="ring table and operator identities")
    add_common(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--len", type=int, required=True)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(table=_witt_check_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so rebinding a cmd_* function (as the layer
    # trace does) reaches the cached parser
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        doc = command(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    body = _json(doc) if args.format == "json" else args.table(doc)
    # print writes the line break separately, so the text is never copied
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                print(body, file=fh)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    try:
        print(body, flush=True)
    except BrokenPipeError:
        # the reader has stopped (``| head``): the flush at exit goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if doc.get("verdict") == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
