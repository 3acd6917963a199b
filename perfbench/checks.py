"""Independent checks of every job's output.

Each check recomputes what it compares from the job's own inputs with the
benchmark's arithmetic, never by calling the calculator again:

* ``tensor``/``power``: rank and determinant exponent of the expression, and
  its character t^e [r]_q evaluated at a point modulo a prime (a ring
  homomorphism out of the K-ring); for powers of L^e F_2, every multiplicity
  must be the ballot number C(m, k) - C(m, k-1).
* ``sset``: the enumerated set must equal the structure law of S(E), the same
  law as ``atiyah.classify.s_set_reachable``, derived again here.
* ``classify``/``p1``: JSON reports must validate against ``REPORT_SCHEMA``;
  the dimension correspondence must hold, with the Krull dimension
  [L non-torsion] + [rank >= 2] (gcd != 0 on P^1).
* ``express``: p(2) = i on the even chain, p(3) = i on the odd chain (the
  rank homomorphism), and p([2]_q) = [i]_q (or p([3]_q)) at a point.
* ``verify``/``oracle_check``: agreement on every pair; the formula route and
  the character route must each give the Clebsch-Gordan components, whose
  ranks add up to r·s.
* ``grid``: every cell holds, with the Krull dimension above, and there are
  rmax·(nmax + 1) cells.
"""

from __future__ import annotations

import json
import math
import re
import time

import jsonschema

# Characters are evaluated at q = Q and t = T (t = 1 under torsion, where
# only the n-th roots of unity are valid points) modulo the prime P.
P = (1 << 61) - 1
Q = 3
T_FREE = 5


class CheckFailure(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _reduce(e: int, torsion: int) -> int:
    return e % torsion if torsion else e


# -- bundle text ---------------------------------------------------------------


def bundle_text(e: int, r: int) -> str:
    if r == 1:
        return "O" if e == 0 else ("L" if e == 1 else f"L^{e}")
    f = f"F_{r}"
    return f if e == 0 else (f"L*{f}" if e == 1 else f"L^{e}*{f}")


_BUNDLE = re.compile(r"O|(?:L(?:\^(-?\d+))?)?\*?(?:F_(\d+))?")


def parse_bundle(text: str) -> tuple[int, int]:
    """(exponent, index) of a canonical name such as ``L^-2*F_3``."""
    match = _BUNDLE.fullmatch(text)
    _require(match is not None and text != "", f"malformed bundle {text!r}")
    if text == "O":
        return 0, 1
    e = int(match.group(1)) if match.group(1) else (1 if text.startswith("L") else 0)
    r = int(match.group(2)) if match.group(2) else 1
    _require(bundle_text(e, r) == text, f"non-canonical bundle {text!r}")
    return e, r


def parse_sum(text: str) -> dict[tuple[int, int], int]:
    """Multiplicities of a canonical sum such as ``2 F_2 + L*F_4``."""
    terms: dict[tuple[int, int], int] = {}
    if text == "0":
        return terms
    for part in text.split(" + "):
        count, _, name = part.rpartition(" ")
        mult = int(count) if count else 1
        _require(mult >= 1 and (mult > 1 or not count), f"bad multiplicity in {part!r}")
        key = parse_bundle(name)
        _require(key not in terms, f"repeated term {name}")
        terms[key] = mult
    return terms


# -- the benchmark's own arithmetic ----------------------------------------------


def _bracket(r: int) -> int:
    """[r]_q = q^{1-r} (q^{2r} - 1) / (q^2 - 1) modulo P."""
    return pow(Q, 1 - r, P) * (pow(Q, 2 * r, P) - 1) * pow(Q * Q - 1, -1, P) % P


def expression_value(node: tuple, t: int) -> tuple[int, int, int, int]:
    """(rank, det exponent, character at (t, Q), character at (1/t, Q))."""
    kind = node[0]
    if kind == "twist":
        _, e, r = node
        b = _bracket(r)
        return r, e * r, pow(t, e, P) * b % P, pow(t, -e, P) * b % P
    if kind == "sum":
        r = d = c = cb = 0
        for part in node[1]:
            r2, d2, c2, cb2 = expression_value(part, t)
            r, d, c, cb = r + r2, d + d2, c + c2, cb + cb2
        return r, d, c % P, cb % P
    if kind == "rep":
        k = node[1]
        r, d, c, cb = expression_value(node[2], t)
        return k * r, k * d, k * c % P, k * cb % P
    if kind == "prod":
        r, d, c, cb = 1, 0, 1, 1
        for f in node[1]:
            r2, d2, c2, cb2 = expression_value(f, t)
            r, d, c, cb = r * r2, d * r2 + d2 * r, c * c2 % P, cb * cb2 % P
        return r, d, c, cb
    if kind == "pow":
        r, d, c, cb = expression_value(node[1], t)
        m = node[2]
        if m < 0:  # the dual: det and t invert
            d, c, cb, m = -d, cb, c, -m
        if m == 0:
            return 1, 0, 1, 1
        return r**m, m * r ** (m - 1) * d, pow(c, m, P), pow(cb, m, P)
    raise ValueError(f"unknown expression node {kind!r}")


def ballot_terms(node: tuple, torsion: int) -> dict[tuple[int, int], int] | None:
    """(L^e F_2)^m = L^{em} ⊗ ⊕_k (C(m,k) - C(m,k-1)) F_{m-2k+1}; None otherwise."""
    if node[0] != "pow" or node[1][0] != "twist" or node[1][2] != 2 or node[2] == 0:
        return None
    e, m = node[1][1], node[2]
    top = abs(m)
    exp = _reduce(e * m, torsion)
    return {
        (exp, top - 2 * k + 1): math.comb(top, k) - (math.comb(top, k - 1) if k else 0)
        for k in range(top // 2 + 1)
    }


def s_set_law(rank: int, torsion: int, bound: int) -> set[tuple[int, int]]:
    """Components of (L F_rank)^{⊗m} for 0 < |m| <= bound.

    The m-th power is L^m ⊗ F_rank^{⊗m}; for |m| >= 2 and rank >= 2 its
    components are F_j for every j of the parity of (rank-1)|m| + 1 up to
    that top index; for |m| = 1 it is F_rank alone.
    """
    out = set()
    for m in range(1, bound + 1):
        for sign in (1, -1):
            e = _reduce(sign * m, torsion)
            if rank == 1 or m == 1:
                out.add((e, rank))
            else:
                out.update((e, j) for j in range((rank - 1) * m + 1, 0, -2))
    return out


def krull_expected(rank: int, torsion: int) -> int:
    """dim R(L F_rank) = dim G: one for Gm when L is non-torsion, one for Ga when rank >= 2."""
    return int(torsion == 0) + int(rank >= 2)


def cg_terms(torsion: int, a: int, r: int, b: int, s: int) -> dict[tuple[int, int], int]:
    """Clebsch-Gordan: L^a F_r ⊗ L^b F_s = ⊕ L^{a+b} F_j, j = |r-s|+1, ..., r+s-1 step 2."""
    e = _reduce(a + b, torsion)
    return {(e, j): 1 for j in range(abs(r - s) + 1, r + s, 2)}


def parse_polynomial(text: str) -> list[int]:
    """Ascending coefficients of a polynomial written like ``x^2 - 3*x + 1``."""
    if text.startswith("- "):
        text = "-" + text[2:]
    coeffs: dict[int, int] = {}
    for part in text.replace(" - ", " + -").split(" + "):
        sign = -1 if part.startswith("-") else 1
        part = part.lstrip("-")
        count, star, var = part.partition("*")
        if not star:
            count, var = ("1", part) if part.startswith("x") else (part, "")
        degree = 0 if not var else (1 if var == "x" else int(var.removeprefix("x^")))
        _require(degree not in coeffs, f"repeated degree in {text!r}")
        coeffs[degree] = sign * int(count)
    return [coeffs.get(d, 0) for d in range(max(coeffs) + 1)]


def _poly_at(coeffs: list[int], x: int, modulus: int | None = None) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
        if modulus:
            acc %= modulus
    return acc


def _check_sum(terms, torsion: int, expr: tuple) -> None:
    t = 1 if torsion else T_FREE
    rank, det, chi, _ = expression_value(expr, t)
    got_rank = got_det = got_chi = 0
    for (e, r), m in terms.items():
        _require(m >= 1, f"multiplicity {m}")
        _require(not torsion or 0 <= e < torsion, f"exponent {e} not reduced mod {torsion}")
        got_rank += m * r
        got_det += m * e * r
        got_chi += m * pow(t, e, P) * _bracket(r)
    _require(got_rank == rank, f"rank {got_rank} != {rank}")
    _require(_reduce(got_det, torsion) == _reduce(det, torsion), "det exponent mismatch")
    _require(got_chi % P == chi, "character value mismatch")
    ballot = ballot_terms(expr, torsion)
    _require(ballot is None or terms == ballot, "multiplicities are not ballot numbers")


def _lines(text: str, prefix: str) -> list[str]:
    return [line[len(prefix):] for line in text.splitlines() if line.startswith(prefix)]


class Checker:
    """Checks job outputs; times its own ``REPORT_SCHEMA`` validations."""

    def __init__(self, report_schema: dict):
        self._validator = jsonschema.Draft202012Validator(report_schema)
        self.validate_s = 0.0
        self.validated = 0

    def check(self, job, status, output) -> str | None:
        """None when the output is right, else why it is wrong."""
        kind, *spec = job.expect
        try:
            if kind == "oracle":
                self._oracle(output, *spec)
            else:
                _require(status == 0, f"exit status {status}")
                fmt, *spec = spec
                data = json.loads(output) if fmt == "json" else output.rstrip("\n")
                getattr(self, "_" + kind)(data, fmt == "json", *spec)
        except (CheckFailure, ValueError, KeyError, TypeError, IndexError, AttributeError) as err:
            return f"{type(err).__name__}: {err}"
        return None

    def _validate(self, payload: dict) -> None:
        start = time.perf_counter()
        errors = list(self._validator.iter_errors(payload))
        self.validate_s += time.perf_counter() - start
        self.validated += 1
        if errors:
            raise CheckFailure(f"schema: {errors[0].message}")

    def _sum(self, data, is_json, torsion, expr):
        if is_json:
            _require(data["torsion"] == torsion, "torsion echoed wrongly")
            terms = {}
            for entry in data["terms"]:
                key = parse_bundle(entry["bundle"])
                _require(key not in terms, f"repeated term {entry['bundle']}")
                terms[key] = entry["multiplicity"]
            _require(parse_sum(data["text"]) == terms, "text and terms disagree")
        else:
            terms = parse_sum(data)
        _check_sum(terms, torsion, expr)

    def _sset(self, data, is_json, rank, torsion, bound):
        if is_json:
            _require(data["input"] == {"rank": rank, "torsion": torsion}, "input echoed wrongly")
            _require(data["bound"] == bound, "bound echoed wrongly")
            names = data["enumerated"]
        else:
            lines = data.splitlines()
            at = lines.index(f"enumerated up to power bound {bound}:")
            names = lines[at + 1].strip().split(", ")
        got = [parse_bundle(name) for name in names]
        _require(len(got) == len(set(got)), "repeated members")
        _require(set(got) == s_set_law(rank, torsion, bound), "S-set differs from the structure law")

    def _report(self, data, is_json, expected: int, input_block: dict):
        if is_json:
            self._validate(data)
            _require(data["input"] == input_block, "input echoed wrongly")
            _require(data["correspondence"] is True, "correspondence is not true")
            dims = (data["krull_dim"], data["group"]["dim"])
        else:
            (krull,) = _lines(data, "Krull dimension: ")
            (verdict,) = _lines(data, "dimension correspondence: ")
            _require(verdict == f"holds ({krull} vs {krull})", f"correspondence: {verdict}")
            dims = (int(krull), int(krull))
        _require(dims == (expected, expected), f"dimensions {dims}, expected {expected}")

    def _classify(self, data, is_json, rank, torsion):
        self._report(data, is_json, krull_expected(rank, torsion), {"rank": rank, "torsion": torsion})

    def _p1(self, data, is_json, degrees, bound):
        step = 0
        for d in degrees:
            step = math.gcd(step, d)
        self._report(data, is_json, int(step != 0), {"degrees": list(degrees)})
        if not is_json:
            sums, reached = {0}, set()
            for _ in range(bound):
                sums = {c + d for c in sums for d in degrees}
                reached |= sums | {-c for c in sums}
            (listed,) = _lines(data, f"degrees enumerated up to power bound {bound}: ")
            _require([int(x) for x in listed.split(", ")] == sorted(reached), "P^1 degrees differ")

    def _express(self, data, is_json, index, chain):
        generator = 2 if chain == "even" else 3
        if is_json:
            _require((data["index"], data["chain"]) == (index, chain), "input echoed wrongly")
            _require(data["generator"] == f"[F_{generator}]", "wrong generator")
            coeffs = data["coefficients"]
            _require(parse_polynomial(data["polynomial"]) == coeffs, "text and coefficients disagree")
        else:
            head, _, rest = data.partition(" = ")
            poly, _, tail = rest.partition("   ")
            _require(head == f"[F_{index}]" and tail == f"(x = [F_{generator}])", "bad layout")
            coeffs = parse_polynomial(poly)
        _require(_poly_at(coeffs, generator) == index, f"p({generator}) != {index}")
        at_q = _poly_at(coeffs, _bracket(generator), P)
        _require(at_q == _bracket(index), f"p([{generator}]_q) != [{index}]_q")

    def _verify(self, data, is_json, rmax):
        pairs = rmax * (rmax + 1) // 2
        if is_json:
            _require(data == {"pairs": pairs, "agreements": pairs, "ok": True}, f"verify: {data}")
        else:
            _require(data == f"oracle agreement {pairs}/{pairs} pairs", f"verify: {data!r}")

    def _grid(self, data, is_json, rmax, nmax):
        cells = rmax * (nmax + 1)
        if is_json:
            _require(data["all_hold"] is True, "not all cells hold")
            rows = [(c["rank"], c["torsion"], c["krull_dim"], c["group_dim"], c["holds"])
                    for c in data["cells"]]
        else:
            lines = data.splitlines()
            _require(lines[-1] == f"dimension correspondence holds in {cells}/{cells} cells",
                     f"grid: {lines[-1]!r}")
            rows = []
            for line in lines[1:-1]:
                r, n, dr, dg, holds = line.split()
                rows.append((int(r), int(n), int(dr), int(dg), holds == "true"))
        _require(len(rows) == cells, f"{len(rows)} cells, expected {cells}")
        _require({(r, n) for r, n, *_ in rows} == {(r, n) for r in range(1, rmax + 1)
                                                  for n in range(nmax + 1)}, "cells miss the grid")
        for r, n, dr, dg, holds in rows:
            k = krull_expected(r, n)
            _require(holds and dr == dg == k, f"cell ({r}, {n}): {dr} vs {dg}, expected {k}")

    def _oracle(self, result, torsion, a, r, b, s):
        expected = cg_terms(torsion, a, r, b, s)
        _require(result.agrees is True, "routes disagree")
        for route in (result.from_formula, result.from_character):
            terms = {(x.exponent, x.index): m for x, m in route.terms.items()}
            _require(terms == expected, "components differ from Clebsch-Gordan")
        rank = sum(m * x.index for x, m in result.from_formula.terms.items())
        _require(rank == r * s, f"formula rank {rank} != {r * s}")
