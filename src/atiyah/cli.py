"""Command-line front end.

Subcommands: tensor, power, sset, classify, express, verify, grid, p1.
Reports go to stdout (optionally copied verbatim to --out FILE), diagnostics
to stderr.  ``--format json`` prints the payload on one line, as the C
encoder of ``json.dumps`` writes it without ``indent``; pipe it through
``python -m json.tool`` for an indented view.  Exit codes: 0 success, 1 usage
error, 2 computation error or a printed check that fails.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import os
import sys

from .bundles import TorsionContext, _line_name, _LinePrefixes, sum_text
from .characters import _verify_pairs
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
    """An argparse parser that raises usage errors, and reads a well-formed
    argv straight off its table (:func:`_read_table`) when it has one.

    ``parse_args`` reads the plain shape ``POS... (--opt VALUE)...``, in any
    order, with each value through its action's own ``type`` and
    ``choices``.  A token that looks like a negative number (the parser's
    ``_negative_number_matcher``) is a positional, as argparse takes it when
    no option string looks like one.  ``parse_args`` falls back to argparse,
    which parses the argv from scratch and gives its own result or message,
    on: a token that starts with ``-`` and is neither a negative number nor
    an exact store-option string (``-h``, ``--``, ``--opt=value``, an
    abbreviation); a missing value or one that starts with ``-``; an option
    given twice; the wrong number of positionals, or for ``p1``'s degrees
    (``nargs="+"``) none or more than one contiguous run of them; a missing
    required option; a ``type`` that raises or a value outside ``choices``.
    A parser without a table always falls back.
    """

    _table = None

    def error(self, message):
        raise _UsageError(message)

    def parse_args(self, args=None, namespace=None):
        if self._table is not None and args is not None and namespace is None:
            values = _read(self._table, args)
            if values is not None:
                return argparse.Namespace(**values)
        return super().parse_args(args, namespace)


def _read_table(parser: _Parser):
    """(store options by option string, positionals, defaults, required
    option dests, the negative-number test) of a parser, from its own
    actions; None for a parser with an action other than -h and plain store
    actions, an option whose ``nargs`` is set, a positional whose ``nargs``
    is set unless it is a sole ``nargs="+"`` one (``p1``'s degrees), a
    string default that argparse would convert through a ``type``, or an
    option string that looks like a negative number."""
    if parser._has_negative_number_optionals:
        return None
    options, positionals, required = {}, [], []
    defaults = dict(parser._defaults)  # set_defaults, for the dests no action has
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if (type(action) is not argparse._StoreAction
                or action.nargs is not None and (action.nargs != "+" or action.option_strings)
                or isinstance(action.default, str) and action.type is not None):
            return None
        defaults[action.dest] = action.default
        if not action.option_strings:
            positionals.append(action)
            continue
        options.update(dict.fromkeys(action.option_strings, action))
        if action.required:
            required.append(action.dest)
    if len(positionals) > 1 and any(action.nargs for action in positionals):
        return None
    return options, positionals, defaults, required, parser._negative_number_matcher.match


def _value(action, text: str):
    """A token's value through its action's type and choices; raises when
    argparse would refuse it."""
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(value)
    return value


def _read(table, args) -> dict | None:
    """The parsed values of an argv of the plain shape, or None to fall back."""
    options, positionals, defaults, required, is_number = table
    given, tokens = {}, []
    ahead = None  # the positionals read before the first option that follows one
    arg_iter = iter(args)
    try:
        for token in arg_iter:
            action = options.get(token)
            if action is None:
                if token[:1] == "-" and not is_number(token):
                    return None
                tokens.append(token)
                continue
            if ahead is None and tokens:
                ahead = len(tokens)
            text = next(arg_iter, "-")  # so that a missing value falls back
            if text[:1] == "-" or action.dest in given:
                return None
            given[action.dest] = _value(action, text)
        if positionals and positionals[0].nargs == "+":
            # argparse gives the degrees their first run and refuses the rest.
            if not tokens or ahead not in (None, len(tokens)):
                return None
            action = positionals[0]
            given[action.dest] = [_value(action, text) for text in tokens]
        else:
            if len(tokens) != len(positionals):
                return None
            for action, text in zip(positionals, tokens):
                given[action.dest] = _value(action, text)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    for dest in required:
        if dest not in given:
            return None
    return {**defaults, **given}


def _int(text: str) -> int:
    # An ArgumentTypeError, so that argparse prints this message rather than
    # one naming the type function.
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonneg_int(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


# -- subcommands --------------------------------------------------------------
#
# Each subcommand is a compute step ``_cmd_*(args) -> (result, exit status)``,
# which does the same work for both formats, and two pure renderers of its
# result: one to the JSON payload, one to the text report.  ``main`` picks the
# renderer, so each renderer runs only for its own format.  The parser holds
# these functions by name and ``main`` looks the names up when it runs, so the
# one parser of a process calls whatever the module binds to them at that
# time, a patched or wrapped function included.


def _cmd_tensor(args):
    ctx = TorsionContext(args.torsion)
    return (args.expression, args.torsion, evaluate_expression(args.expression, ctx)), 0


def _cmd_power(args):
    ctx = TorsionContext(args.torsion)
    result = evaluate_expression(args.expression, ctx).tensor_power(args.exponent)
    return (f"({args.expression})^{args.exponent}", args.torsion, result), 0


def _decomposition_to_json(decomposition) -> dict:
    expression, torsion, x = decomposition
    named = x.named_terms()  # named once, for both the terms and the text
    return {
        "expression": expression,
        "torsion": torsion,
        "terms": [{"multiplicity": c, "bundle": name} for c, name in named],
        "text": sum_text(named),
    }


def _decomposition_to_text(decomposition) -> str:
    return str(decomposition[2])


def _cmd_sset(args):
    symbolic = s_set_symbolic(args.rank, args.torsion)
    enumerated = s_set_enumerate(args.rank, args.torsion, args.bound)
    return (args.rank, args.torsion, args.bound, symbolic, enumerated), 0


def _sset_rows(rows):
    """Each row ``(j, exponents)`` of an enumerated S-set as ``(heads, tail)``,
    the names of its members being ``head + tail`` for each head.

    A row of index j >= 2 has the line prefixes as heads, each computed once
    per distinct exponent over all rows, and F_j as tail; an index-1 row has
    the line names as heads and no tail.  So a row prints as
    ``f"{tail}, ".join(heads) + tail``, with no name built per member.
    """
    prefixes = _LinePrefixes()
    for index, exponents in rows:
        if index == 1:
            yield [_line_name(e) for e in exponents], ""
        else:
            yield list(map(prefixes.__getitem__, exponents)), f"F_{index}"


def _sset_to_json(result) -> dict:
    rank, torsion, bound, symbolic, enumerated = result
    return {
        "input": {"rank": rank, "torsion": torsion},
        "bound": bound,
        "symbolic": {
            "finite": [str(b) for b in symbolic.finite_part],
            "families": [f.description for f in symbolic.families],
        },
        "enumerated": [
            head + tail for heads, tail in _sset_rows(enumerated) for head in heads
        ],
    }


def _sset_to_text(result) -> str:
    rank, torsion, bound, symbolic, enumerated = result
    lines = [f"S(E) for rank {rank}, torsion {torsion}:"]
    for entry in symbolic.describe():
        lines.append(f"  {entry}")
    lines.append(f"enumerated up to power bound {bound}:")
    lines.append(
        "  " + ", ".join(f"{tail}, ".join(heads) + tail for heads, tail in _sset_rows(enumerated))
    )
    return "\n".join(lines)


def _cmd_classify(args):
    report = classify(args.rank, args.torsion)
    return report, 0 if report.correspondence_holds else 2


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


def _presentation_text(report: ClassificationReport) -> str:
    text = str(report.presentation)
    gens = report.presentation.generators
    if gens:
        names = ["x", "y"][: len(gens)]
        bindings = ", ".join(f"{n} = {g}" for n, g in zip(names, gens))
        text += f"   ({bindings})"
    return text


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


def _cmd_express(args):
    if args.chain == "odd" and args.index % 2 == 0:
        raise _UsageError("--chain odd requires an odd --index")
    generator = "[F_2]" if args.chain == "even" else "[F_3]"
    return (args.index, args.chain, generator, express_in_generator(args.index, args.chain)), 0


def _express_to_json(result) -> dict:
    index, chain, generator, poly = result
    return {
        "index": index,
        "chain": chain,
        "generator": generator,
        "coefficients": list(poly.coefficients),
        "polynomial": str(poly),
    }


def _express_to_text(result) -> str:
    index, chain, generator, poly = result
    return f"[F_{index}] = {poly}   (x = {generator})"


def _cmd_verify(args):
    ctx = TorsionContext(args.torsion)
    pairs = args.rmax * (args.rmax + 1) // 2
    failures = [  # at most one per pair: its first disagreeing probe
        f"{a} x {b}: formula {formula} vs oracle {oracle}"
        for a, b, formula, oracle in _verify_pairs(ctx, args.rmax)
    ]
    return (pairs, pairs - len(failures), failures), 2 if failures else 0


def _verify_to_json(result) -> dict:
    total, agreements, failures = result
    payload = {"pairs": total, "agreements": agreements, "ok": agreements == total}
    if failures:
        payload["failures"] = failures
    return payload


def _verify_to_text(result) -> str:
    total, agreements, failures = result
    return "\n".join([f"oracle agreement {agreements}/{total} pairs", *failures])


def _cmd_grid(args):
    rows = correspondence_grid(args.rmax, args.nmax)
    return rows, 0 if all(k == g for _, _, k, g in rows) else 2


def _grid_to_json(rows) -> dict:
    return {
        "cells": [
            {"rank": r, "torsion": n, "krull_dim": k, "group_dim": g, "holds": k == g}
            for r, n, k, g in rows
        ],
        "all_hold": all(k == g for _, _, k, g in rows),
    }


def _grid_to_text(rows) -> str:
    lines = ["rank torsion dimR dimG holds"]
    for r, n, k, g in rows:
        lines.append(f"{r:4d} {n:7d} {k:4d} {g:4d} {str(k == g).lower()}")
    holding = sum(k == g for _, _, k, g in rows)
    lines.append(f"dimension correspondence holds in {holding}/{len(rows)} cells")
    return "\n".join(lines)


def _cmd_p1(args):
    report = p1_classify(args.degrees)
    enumerated = sorted(p1_s_set_enumerate(args.degrees, args.bound))
    return (report, args.bound, enumerated), 0 if report.correspondence_holds else 2


def _p1_to_json(result) -> dict:
    report, bound, enumerated = result
    return {**report_to_json(report), "bound": bound, "enumerated": enumerated}


def _p1_to_text(result) -> str:
    report, bound, enumerated = result
    return (
        f"{report_to_text(report)}\ndegrees enumerated up to power bound {bound}: "
        + ", ".join(str(d) for d in enumerated)
    )


# -- argument wiring ----------------------------------------------------------


def _add_common(sub, handler, to_json, to_text, torsion=True):
    """Add the common options and the subcommand's compute step and renderers."""
    if torsion:
        sub.add_argument(
            "--torsion",
            type=_nonneg_int,
            default=0,
            help="order of L in Pic^0 (0 = non-torsion, default)",
        )
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub.add_argument("--out", metavar="FILE", help="also write the report to FILE")
    sub.set_defaults(
        handler=handler.__name__, to_json=to_json.__name__, to_text=to_text.__name__
    )


def build_parser(command: str | None = None) -> _Parser:
    """The parser for one call: a shallow copy of the subcommand's own parser
    when ``command`` names one of the eight subcommands, else of the full one.

    ``main`` passes its first argument as ``command`` and parses the rest with
    the subcommand's parser, which skips the full parser's dispatch through
    its subparsers action; the usage errors are the same, since the subparser
    raises them on either route.  A subcommand's ``parse_args`` reads a
    well-formed argv straight off the table that :func:`_read_table` makes
    from its own actions, ``p1``'s degrees and negative numbers included, and
    leaves every other argv to argparse (see :class:`_Parser`); the full
    parser always uses argparse.
    The parsers and their tables are built once, on first use (about 2 ms),
    and a copy costs about 3 us.  Each caller gets its own copy, so that
    rebinding an attribute of the result, as a tracer that wraps
    ``parse_args`` does, leaves later calls untouched.  The copies share
    their arguments, tables and subparsers: add none.
    """
    parser, subparsers = _shared_parsers()
    return copy.copy(subparsers.get(command, parser))


@functools.cache
def _shared_parsers() -> tuple[_Parser, dict[str, _Parser]]:
    """The full parser, and its subparsers by command name, each with the
    table of its direct read."""
    parser = _Parser(
        prog="atiyah",
        description="Exact K-ring calculator for degree-zero bundles on an elliptic curve",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("tensor", help="decompose a bundle expression")
    p.add_argument("expression")
    _add_common(p, _cmd_tensor, _decomposition_to_json, _decomposition_to_text)

    p = subs.add_parser("power", help="decompose an integer tensor power of an expression")
    p.add_argument("expression")
    p.add_argument("exponent", type=int)
    _add_common(p, _cmd_power, _decomposition_to_json, _decomposition_to_text)

    p = subs.add_parser("sset", help="describe and enumerate S(E) for E = L*F_r")
    p.add_argument("--rank", type=_positive_int, required=True)
    p.add_argument("--bound", type=_positive_int, default=6, help="power bound for enumeration")
    _add_common(p, _cmd_sset, _sset_to_json, _sset_to_text)

    p = subs.add_parser("classify", help="ring presentation, Krull dimension, group scheme")
    p.add_argument("--rank", type=_positive_int, required=True)
    _add_common(p, _cmd_classify, report_to_json, report_to_text)

    p = subs.add_parser("express", help="write [F_i] as a polynomial in [F_2] or [F_3]")
    p.add_argument("--index", type=_positive_int, required=True)
    p.add_argument("--chain", choices=("even", "odd"), default="even")
    _add_common(p, _cmd_express, _express_to_json, _express_to_text, torsion=False)

    p = subs.add_parser("verify", help="cross-check the tensor rule against the character oracle")
    p.add_argument("--rmax", type=_positive_int, default=6)
    _add_common(p, _cmd_verify, _verify_to_json, _verify_to_text)

    p = subs.add_parser("grid", help="dimension correspondence over a (rank, torsion) grid")
    p.add_argument("--rmax", type=_positive_int, default=10)
    p.add_argument("--nmax", type=_nonneg_int, default=12)
    _add_common(p, _cmd_grid, _grid_to_json, _grid_to_text, torsion=False)

    p = subs.add_parser("p1", help="classification of a sum of line bundles on P^1")
    p.add_argument("degrees", type=int, nargs="+")
    p.add_argument("--bound", type=_positive_int, default=6)
    _add_common(p, _cmd_p1, _p1_to_json, _p1_to_text, torsion=False)

    for sub in subs.choices.values():
        sub._table = _read_table(sub)
    return parser, subs.choices


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv else None
    parser = build_parser(command)
    try:
        # No arguments, an unknown command and a top-level -h/--help go to
        # the full parser, which reports them as it always has.
        args = parser.parse_args(argv[1:] if command in _shared_parsers()[1] else argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    names = globals()
    try:
        result, status = names[args.handler](args)
        if args.format == "json":
            output = json.dumps(names[args.to_json](result))
        else:
            output = names[args.to_text](result)
    except (_UsageError, ExpressionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early, which is not an error of the command.
        # Send the unwritten rest to devnull, so that the flush at shutdown
        # does not fail on the closed pipe as well.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
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
