"""Command-line front end.

Subcommands: tensor, power, sset, classify, express, verify, grid, p1.
Reports go to stdout (optionally copied verbatim to --out FILE), diagnostics
to stderr.  Exit codes: 0 success, 1 usage error, 2 computation error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bundles import BundleSum, IndecomposableBundle, TorsionContext
from .characters import oracle_check
from .classify import (
    ClassificationReport,
    classify,
    correspondence_grid,
    express_in_generator,
    p1_classify,
    p1_s_set_enumerate,
    s_set_enumerate,
    s_set_symbolic,
)
from .expressions import ExpressionError, evaluate_expression


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


# -- rendering --------------------------------------------------------------


def _sum_terms(x: BundleSum) -> list[dict]:
    return [
        {"multiplicity": x.terms[b], "bundle": str(b)} for b in x.support()
    ]


def _decomposition_payload(expression: str, torsion: int, x: BundleSum) -> dict:
    return {
        "expression": expression,
        "torsion": torsion,
        "terms": _sum_terms(x),
        "text": str(x),
    }


def _presentation_text(report: ClassificationReport) -> str:
    text = str(report.presentation)
    gens = report.presentation.generators
    if gens:
        names = ["x", "y"][: len(gens)]
        bindings = ", ".join(f"{n} = {g}" for n, g in zip(names, gens))
        text += f"   ({bindings})"
    return text


def report_to_json(report: ClassificationReport) -> dict:
    if report.curve == "p1":
        input_block = {"degrees": list(report.degrees)}
        finite = ["O"] if report.s_set.step == 0 else []
        families = [] if report.s_set.step == 0 else report.s_set.describe()
    else:
        input_block = {"rank": report.rank, "torsion": report.torsion}
        finite = [str(b) for b in report.s_set.finite_part]
        families = [f.description for f in report.s_set.families]
    payload = {
        "input": input_block,
        "s_set": {"finite": finite, "families": families},
        "presentation": {
            "kind": report.presentation.kind.value,
            "modulus": report.presentation.modulus,
            "generators": list(report.presentation.generators),
        },
        "krull_dim": report.krull_dim,
        "group": {"factors": list(report.group.factors), "dim": report.group.dimension},
        "correspondence": report.correspondence_holds,
        "minimality_note": report.minimality_note,
    }
    if report.notes:
        payload["notes"] = list(report.notes)
    return payload


def report_to_text(report: ClassificationReport) -> str:
    lines = []
    if report.curve == "p1":
        bundle = " + ".join(f"O({d})" for d in report.degrees)
        lines.append(f"E = {bundle} on P^1")
        lines.append(f"gcd of degrees: {report.s_set.step}")
        for entry in report.s_set.describe():
            lines.append(f"S(E): {entry}")
    else:
        ctx = TorsionContext(report.torsion)
        e = ctx.bundle(1, report.rank)
        lines.append(f"E = {e} (rank {report.rank}, {ctx})")
        lines.append("S(E):")
        for entry in report.s_set.describe():
            lines.append(f"  {entry}")
    lines.append(f"R(E) = {_presentation_text(report)}")
    lines.append(f"Krull dimension: {report.krull_dim}")
    lines.append(f"group scheme: {report.group} (dimension {report.group.dimension})")
    verdict = "holds" if report.correspondence_holds else "FAILS"
    lines.append(
        f"dimension correspondence: {verdict} "
        f"({report.krull_dim} vs {report.group.dimension})"
    )
    if report.minimality_note:
        lines.append(f"minimality: {report.minimality_note}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


# -- subcommand handlers ------------------------------------------------------


def _cmd_tensor(args) -> tuple[str, int]:
    ctx = TorsionContext(args.torsion)
    result = evaluate_expression(args.expression, ctx)
    if args.format == "json":
        return json.dumps(_decomposition_payload(args.expression, args.torsion, result), indent=2), 0
    return str(result), 0


def _cmd_power(args) -> tuple[str, int]:
    ctx = TorsionContext(args.torsion)
    result = evaluate_expression(args.expression, ctx).tensor_power(args.exponent)
    label = f"({args.expression})^{args.exponent}"
    if args.format == "json":
        return json.dumps(_decomposition_payload(label, args.torsion, result), indent=2), 0
    return str(result), 0


def _cmd_sset(args) -> tuple[str, int]:
    symbolic = s_set_symbolic(args.rank, args.torsion)
    enumerated = sorted(
        s_set_enumerate(args.rank, args.torsion, args.bound),
        key=IndecomposableBundle.sort_key,
    )
    if args.format == "json":
        payload = {
            "input": {"rank": args.rank, "torsion": args.torsion},
            "bound": args.bound,
            "symbolic": {
                "finite": [str(b) for b in symbolic.finite_part],
                "families": [f.description for f in symbolic.families],
            },
            "enumerated": [str(b) for b in enumerated],
        }
        return json.dumps(payload, indent=2), 0
    lines = [f"S(E) for rank {args.rank}, torsion {args.torsion}:"]
    for entry in symbolic.describe():
        lines.append(f"  {entry}")
    lines.append(f"enumerated up to power bound {args.bound}:")
    lines.append("  " + ", ".join(str(b) for b in enumerated))
    return "\n".join(lines), 0


def _cmd_classify(args) -> tuple[str, int]:
    report = classify(args.rank, args.torsion)
    if args.format == "json":
        return json.dumps(report_to_json(report), indent=2), 0
    return report_to_text(report), 0


def _cmd_express(args) -> tuple[str, int]:
    if args.chain == "odd" and args.index % 2 == 0:
        raise _UsageError("--chain odd requires an odd --index")
    poly = express_in_generator(args.index, args.chain)
    generator = "[F_2]" if args.chain == "even" else "[F_3]"
    if args.format == "json":
        payload = {
            "index": args.index,
            "chain": args.chain,
            "generator": generator,
            "coefficients": list(poly.coefficients),
            "polynomial": str(poly),
        }
        return json.dumps(payload, indent=2), 0
    return f"[F_{args.index}] = {poly}   (x = {generator})", 0


_VERIFY_PROBES = ((0, 0), (1, -1), (2, 1))


def _cmd_verify(args) -> tuple[str, int]:
    ctx = TorsionContext(args.torsion)
    total = 0
    agreements = 0
    failures = []
    for r in range(1, args.rmax + 1):
        for s in range(1, r + 1):
            total += 1
            ok = True
            for ea, eb in _VERIFY_PROBES:
                check = oracle_check(ctx, ctx.bundle(ea, r), ctx.bundle(eb, s))
                if not check.agrees:
                    ok = False
                    failures.append(
                        f"F_{r} x F_{s}: formula {check.from_formula} "
                        f"vs oracle {check.from_character}"
                    )
                    break
            if ok:
                agreements += 1
    text = f"oracle agreement {agreements}/{total} pairs"
    if args.format == "json":
        payload = {"pairs": total, "agreements": agreements, "ok": agreements == total}
        if failures:
            payload["failures"] = failures
        text = json.dumps(payload, indent=2)
    elif failures:
        text += "\n" + "\n".join(failures)
    return text, 0 if agreements == total else 2


def _cmd_grid(args) -> tuple[str, int]:
    cells = correspondence_grid(args.rmax, args.nmax)
    holding = sum(1 for c in cells if c.correspondence_holds)
    ok = holding == len(cells)
    if args.format == "json":
        payload = {
            "cells": [
                {
                    "rank": c.rank,
                    "torsion": c.torsion,
                    "krull_dim": c.krull_dim,
                    "group_dim": c.group.dimension,
                    "holds": c.correspondence_holds,
                }
                for c in cells
            ],
            "all_hold": ok,
        }
        return json.dumps(payload, indent=2), 0 if ok else 2
    lines = ["rank torsion dimR dimG holds"]
    for c in cells:
        lines.append(
            f"{c.rank:4d} {c.torsion:7d} {c.krull_dim:4d} {c.group.dimension:4d} "
            f"{str(c.correspondence_holds).lower()}"
        )
    lines.append(f"dimension correspondence holds in {holding}/{len(cells)} cells")
    return "\n".join(lines), 0 if ok else 2


def _cmd_p1(args) -> tuple[str, int]:
    report = p1_classify(args.degrees)
    if args.format == "json":
        return json.dumps(report_to_json(report), indent=2), 0
    lines = [report_to_text(report)]
    enumerated = sorted(p1_s_set_enumerate(args.degrees, args.bound))
    lines.append(
        f"degrees enumerated up to power bound {args.bound}: "
        + ", ".join(str(d) for d in enumerated)
    )
    return "\n".join(lines), 0


# -- argument wiring ----------------------------------------------------------


def _add_common(sub, torsion=True, fmt=True):
    if torsion:
        sub.add_argument(
            "--torsion",
            type=_nonneg_int,
            default=0,
            help="order of L in Pic^0 (0 = non-torsion, default)",
        )
    if fmt:
        sub.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
    sub.add_argument("--out", metavar="FILE", help="also write the report to FILE")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="atiyah",
        description="Exact K-ring calculator for degree-zero bundles on an elliptic curve",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("tensor", help="decompose a bundle expression")
    p.add_argument("expression")
    _add_common(p)
    p.set_defaults(handler=_cmd_tensor)

    p = subs.add_parser("power", help="decompose an integer tensor power of an expression")
    p.add_argument("expression")
    p.add_argument("exponent", type=int)
    _add_common(p)
    p.set_defaults(handler=_cmd_power)

    p = subs.add_parser("sset", help="describe and enumerate S(E) for E = L*F_r")
    p.add_argument("--rank", type=_positive_int, required=True)
    p.add_argument("--bound", type=_positive_int, default=6, help="power bound for enumeration")
    _add_common(p)
    p.set_defaults(handler=_cmd_sset)

    p = subs.add_parser("classify", help="ring presentation, Krull dimension, group scheme")
    p.add_argument("--rank", type=_positive_int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_classify)

    p = subs.add_parser("express", help="write [F_i] as a polynomial in [F_2] or [F_3]")
    p.add_argument("--index", type=_positive_int, required=True)
    p.add_argument("--chain", choices=("even", "odd"), default="even")
    _add_common(p, torsion=False)
    p.set_defaults(handler=_cmd_express)

    p = subs.add_parser("verify", help="cross-check the tensor rule against the character oracle")
    p.add_argument("--rmax", type=_positive_int, default=6)
    _add_common(p)
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("grid", help="dimension correspondence over a (rank, torsion) grid")
    p.add_argument("--rmax", type=_positive_int, default=10)
    p.add_argument("--nmax", type=_nonneg_int, default=12)
    _add_common(p, torsion=False)
    p.set_defaults(handler=_cmd_grid)

    p = subs.add_parser("p1", help="classification of a sum of line bundles on P^1")
    p.add_argument("degrees", type=int, nargs="+")
    p.add_argument("--bound", type=_positive_int, default=6)
    _add_common(p, torsion=False)
    p.set_defaults(handler=_cmd_p1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        output, status = args.handler(args)
    except (_UsageError, ExpressionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(output)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output + "\n")
        except OSError as err:
            print(f"error: cannot write --out file: {err}", file=sys.stderr)
            return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
