"""Seeded job streams for the three benchmark workloads.

A workload is a list of jobs built from ``random.Random(seed)``; the same seed
gives the same list.  A job is either one ``atiyah.cli.main(argv)`` call or
one ``atiyah.oracle_check`` library call, and carries the facts that
``checks.Checker.check`` verifies its output against.

Sizes are stratified rather than drawn freely: each job class has a fixed
count, and a size parameter takes one jittered point per equal-width stratum
of its range.  The seed still chooses every size, torsion, format, spelling
and the job order, but the total work and the latency quantiles of a list
then move little from seed to seed, which keeps the run-to-run spread of the
end-to-end metrics small.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    """One job: ``argv`` for a CLI call, else ``pair`` for ``oracle_check``.

    ``pair`` is ``(torsion, a, r, b, s)`` for L^a F_r against L^b F_s.
    ``expect`` starts with the check name and holds what the check needs.
    """

    expect: tuple
    argv: tuple[str, ...] = ()
    pair: tuple[int, int, int, int, int] = ()


# -- expressions ---------------------------------------------------------------
#
# Expression trees are tuples: ("twist", e, r) is L^e F_r (r = 1 is a line
# bundle, e = r - 1 = 0 is O); ("sum", parts), ("prod", factors),
# ("pow", base, m) and ("rep", k, inner) mirror the CLI grammar.


def twist(e: int, r: int) -> tuple:
    return ("twist", e, r)


O = twist(0, 1)


def F(r: int) -> tuple:
    return twist(0, r)


_SUM, _TERM, _PROD, _ATOM = range(4)


def render(node: tuple, rng: random.Random, level: int = _SUM) -> str:
    """Write ``node`` in the CLI grammar, with seeded choices of spelling."""
    kind = node[0]
    if kind == "twist":
        _, e, r = node
        if r == 1:
            text = "O" if e == 0 else ("L" if e == 1 else f"L^{e}")
            prec = _ATOM if e in (0, 1) else _PROD
        else:
            f = rng.choice((f"F_{r}", f"F({r})", f"F{r}"))
            text = f if e == 0 else (f"L*{f}" if e == 1 else f"L^{e}*{f}")
            prec = _ATOM if e == 0 else _PROD
    elif kind == "sum":
        text = " + ".join(render(p, rng, _TERM) for p in node[1])
        prec = _SUM
    elif kind == "rep":
        sep = rng.choice((" ", "*"))
        text = f"{node[1]}{sep}{render(node[2], rng, _PROD)}"
        prec = _TERM
    elif kind == "prod":
        sep = rng.choice(("*", " * "))
        text = sep.join(render(f, rng, _PROD) for f in node[1])
        prec = _PROD
    elif kind == "pow":
        text = f"{render(node[1], rng, _ATOM)}^{node[2]}"
        prec = _PROD
    else:
        raise ValueError(f"unknown expression node {kind!r}")
    return f"({text})" if prec < level else text


# -- sampling helpers ----------------------------------------------------------


def _strata(rng: random.Random, n: int, jitter: float = 0.5) -> list[float]:
    """n ascending points in [0, 1), one per equal-width stratum, jittered."""
    return [(i + 0.5 + jitter * (rng.random() - 0.5)) / n for i in range(n)]


def _geo(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _balanced(rng: random.Random, n: int, choices) -> list:
    """n picks cycling through ``choices`` from a seeded start.

    Zipped with the ascending ``_strata`` points, every choice gets sizes
    spread over the whole range, so that a choice that changes the cost
    (JSON rendering, torsion) adds the same work on every seed.
    """
    start = rng.randrange(len(choices))
    return [choices[(start + i) % len(choices)] for i in range(n)]


def _power_size(u: float, r: int, lo: float, hi: float) -> int:
    """Exponent m giving F_r^m about _geo(u, lo, hi) units of work, r(r-1)m^2/4."""
    return max(2, round((4 * _geo(u, lo, hi) / (r * (r - 1))) ** 0.5))


def _fmt_args(fmt: str) -> tuple[str, ...]:
    return ("--format", "json") if fmt == "json" else ()


# -- job builders --------------------------------------------------------------


def power_job(rng, base: tuple, m: int, torsion: int, fmt: str) -> Job:
    """``power BASE M``, or the same work spelled ``tensor (BASE)^M``."""
    if rng.random() < 0.5:
        argv = ("power", render(base, rng), str(m))
    else:
        argv = ("tensor", render(("pow", base, m), rng))
    argv += ("--torsion", str(torsion)) + _fmt_args(fmt)
    return Job(("sum", fmt, torsion, ("pow", base, m)), argv)


def tensor_job(rng, expr: tuple, torsion: int, fmt: str) -> Job:
    argv = ("tensor", render(expr, rng), "--torsion", str(torsion)) + _fmt_args(fmt)
    return Job(("sum", fmt, torsion, expr), argv)


def sset_job(rank: int, bound: int, torsion: int, fmt: str) -> Job:
    argv = ("sset", "--rank", str(rank), "--bound", str(bound), "--torsion", str(torsion))
    return Job(("sset", fmt, rank, torsion, bound), argv + _fmt_args(fmt))


def classify_job(rank: int, torsion: int, fmt: str) -> Job:
    argv = ("classify", "--rank", str(rank), "--torsion", str(torsion))
    return Job(("classify", fmt, rank, torsion), argv + _fmt_args(fmt))


def p1_job(degrees: tuple[int, ...], bound: int, fmt: str) -> Job:
    argv = ("p1", *map(str, degrees), "--bound", str(bound))
    return Job(("p1", fmt, degrees, bound), argv + _fmt_args(fmt))


def express_job(index: int, chain: str, fmt: str) -> Job:
    argv = ("express", "--index", str(index), "--chain", chain)
    return Job(("express", fmt, index, chain), argv + _fmt_args(fmt))


def verify_job(rmax: int, torsion: int, fmt: str) -> Job:
    argv = ("verify", "--rmax", str(rmax), "--torsion", str(torsion))
    return Job(("verify", fmt, rmax), argv + _fmt_args(fmt))


def grid_job(rmax: int, nmax: int, fmt: str) -> Job:
    argv = ("grid", "--rmax", str(rmax), "--nmax", str(nmax))
    return Job(("grid", fmt, rmax, nmax), argv + _fmt_args(fmt))


def oracle_job(torsion: int, a: int, r: int, b: int, s: int) -> Job:
    return Job(("oracle", torsion, a, r, b, s), pair=(torsion, a, r, b, s))


def _small_expr(rng: random.Random) -> tuple:
    """A short sum of products of twisted atoms, some raised to small powers."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 2)):
            atom = twist(rng.randint(-3, 3), rng.randint(1, 6))
            if rng.random() < 0.3:
                atom = ("pow", atom, rng.choice((-2, 2, 3)))
            factors.append(atom)
        term = factors[0] if len(factors) == 1 else ("prod", tuple(factors))
        if rng.random() < 0.2:
            term = ("rep", rng.randint(2, 3), term)
        terms.append(term)
    return terms[0] if len(terms) == 1 else ("sum", tuple(terms))


def _long_sum(rng: random.Random, n: int) -> tuple:
    """A flat sum of n twisted atoms: parse-heavy, with almost no tensor work."""
    parts = []
    for _ in range(n):
        atom = twist(rng.randint(-9, 9), rng.randint(1, 12))
        parts.append(("rep", rng.randint(2, 5), atom) if rng.random() < 0.3 else atom)
    return ("sum", tuple(parts))


# -- workloads -----------------------------------------------------------------

_TORSIONS = (0, 1, 4, 6)
_TWISTED = ("sum", (twist(-1, 2), O))  # L^-1 F_2 + O: a true two-variable (t, q) case

# The heavy tail of power_tower: (kind, expression or rank, size, torsions, format).
# A torsion tuple with several entries lists choices of equal cost.
_TOWER_LARGE = (
    ("power", F(2), 1000, _TORSIONS, "text"),
    ("power", F(7), 150, _TORSIONS, "text"),
    ("power", _TWISTED, 100, (0,), "text"),
    ("sset", 7, 120, (0,), "text"),
    ("power", F(2), 400, _TORSIONS, "json"),
    ("power", ("sum", (twist(1, 3), F(2))), 50, (6,), "json"),
    ("tensor", ("prod", (("pow", F(5), 30), ("pow", twist(2, 4), 20))), None, (4,), "text"),
    ("power", _TWISTED, 150, (4,), "text"),
    ("sset", 5, 100, (6,), "json"),
    ("power", twist(-1, 4), -120, (0,), "text"),
    ("power", F(9), 70, _TORSIONS, "json"),
    ("power", ("sum", (F(2), twist(1, 3))), 30, (0,), "json"),
)


def _tower_large(rng: random.Random) -> list[Job]:
    jobs = []
    for kind, what, size, torsions, fmt in _TOWER_LARGE:
        torsion = rng.choice(torsions)
        if kind == "power":
            jobs.append(power_job(rng, what, size, torsion, fmt))
        elif kind == "tensor":
            jobs.append(tensor_job(rng, what, torsion, fmt))
        else:
            jobs.append(sset_job(what, size, torsion, fmt))
    return jobs


def _tower_mid(rng: random.Random, per_kind: int) -> list[Job]:
    """Mid-size power/tensor/sset jobs, ``per_kind`` of each of eight kinds."""
    jobs = []
    for kind in range(8):
        torsions = _balanced(rng, per_kind, _TORSIONS)
        formats = _balanced(rng, per_kind, ("text", "json"))
        for u, n, fmt in zip(_strata(rng, per_kind), torsions, formats):
            if kind == 0:
                jobs.append(power_job(rng, F(2), round(_geo(u, 50, 180)), n, fmt))
            elif kind == 1:
                r = rng.randint(3, 9)
                jobs.append(power_job(rng, F(r), _power_size(u, r, 1000, 12000), n, fmt))
            elif kind == 2:
                jobs.append(power_job(rng, _TWISTED, round(_geo(u, 12, 32)), 0, fmt))
            elif kind == 3:
                n = 4 if n in (0, 4) else 6
                jobs.append(power_job(rng, _TWISTED, round(_geo(u, 20, 60)), n, fmt))
            elif kind == 4:
                # S(E) up to power b costs about as much as F_r^b.
                r = rng.randint(2, 6)
                jobs.append(sset_job(r, _power_size(u, r, 300, 6000), n, fmt))
            elif kind == 5:
                r = rng.randint(2, 5)
                base = twist(rng.choice((-3, -2, -1, 1, 2, 3)), r)
                jobs.append(power_job(rng, base, -_power_size(u, r, 500, 8000), n, fmt))
            elif kind == 6:
                k = round(_geo(u, 4, 14))
                expr = ("prod", (("pow", F(3), k), ("pow", twist(rng.randint(1, 3), 4), k)))
                jobs.append(tensor_job(rng, expr, n, fmt))
            else:
                base = ("sum", (twist(1, 3), F(2)))
                jobs.append(power_job(rng, base, round(_geo(u, 5, 14)), n, fmt))
    return jobs


def background(rng: random.Random) -> list[Job]:
    """One small call of each kind, so that every layer is measured on every
    workload; together they cost a few milliseconds."""
    return [
        classify_job(rng.randint(1, 8), rng.randint(0, 8), "json"),
        p1_job((rng.randint(-6, 6), rng.randint(1, 6)), 3, "json"),
        express_job(rng.randint(3, 30), "even", "text"),
        grid_job(3, 3, "json"),
        verify_job(3, rng.choice((0, 1, 4)), "text"),
        sset_job(rng.randint(2, 4), 4, rng.choice(_TORSIONS), "text"),
        tensor_job(rng, ("prod", (("pow", twist(1, 2), -2), F(3))), 0, "text"),
        tensor_job(rng, _small_expr(rng), rng.choice(_TORSIONS), "json"),
    ]


def power_tower(rng: random.Random) -> list[Job]:
    """A heavy-tailed stream of power/tensor/sset jobs: 12 large, 88 mid-size.

    Every large job is slower than every mid-size one, so job_p90_ms (near
    the 11th slowest of 108) falls among the large jobs, whose sizes are
    fixed, and moves little from seed to seed.
    """
    return _tower_large(rng) + _tower_mid(rng, 11) + background(rng)


def oracle_sweep(rng: random.Random) -> list[Job]:
    """``verify`` runs and direct ``oracle_check`` calls with r·s up to 2·10^6."""
    jobs = []
    torsions = (0, 1, 2, 3, 4, 6)
    # verify --rmax R: cost grows like R^4, so most runs are small.  The eight
    # at R = 20 sit around the 90th percentile, which then falls inside one
    # class of jobs of equal size.
    for count, lo, hi in ((41, 2, 14), (8, 20, 20), (1, 40, 40)):
        formats = _balanced(rng, count, ("text", "json"))
        for u, n, fmt in zip(_strata(rng, count), _balanced(rng, count, torsions), formats):
            jobs.append(verify_job(round(lo + u * (hi - lo)), n, fmt))
    # oracle_check pairs, by decade of r·s; the cost is close to linear in r·s.
    for count, lo, hi in ((18, 1e2, 1e3), (15, 1e3, 1e4), (12, 1e4, 1e5), (4, 1e5, 1e6)):
        ratios = _strata(rng, count)
        rng.shuffle(ratios)
        for u, v, n in zip(_strata(rng, count, jitter=0.3), ratios, _balanced(rng, count, torsions)):
            product = _geo(u, lo, hi)
            ratio = _geo(v, 1, 8)
            s = max(1, round((product / ratio) ** 0.5))
            r = max(1, round(product / s))
            a, b = rng.randint(-6, 6), rng.randint(-6, 6)
            jobs.append(oracle_job(n, a, r, b, s) if rng.random() < 0.5 else oracle_job(n, b, s, a, r))
    # The top of the range: F_2000 against F_1000.
    jobs.append(oracle_job(rng.choice((2, 3, 4, 6)), rng.randint(-6, 6), 2000, rng.randint(-6, 6), 1000))
    return jobs + background(rng)


def interactive_mix(rng: random.Random) -> list[Job]:
    """1100 small calls across all eight subcommands."""
    jobs = []
    classify_formats = _balanced(rng, 200, ("json", "json", "json", "text"))
    for u, n, fmt in zip(_strata(rng, 200), _balanced(rng, 200, tuple(range(13))), classify_formats):
        jobs.append(classify_job(1 + int(u * 12), n, fmt))
    for i in range(100):
        degrees = tuple(rng.randint(-12, 12) for _ in range(rng.randint(1, 4)))
        jobs.append(p1_job(degrees, rng.randint(1, 6), "json" if i % 10 < 7 else "text"))
    torsions = (0, 1, 2, 3, 4, 6)
    for u, n, fmt in zip(_strata(rng, 120), _balanced(rng, 120, torsions), _balanced(rng, 120, ("text", "json"))):
        jobs.append(sset_job(rng.randint(1, 6), 1 + int(u * 8), n, fmt))
    for u, fmt in zip(_strata(rng, 120), _balanced(rng, 120, ("text", "json"))):
        index = 1 + int(u * 200)
        chain = "odd" if index % 2 and rng.random() < 0.5 else "even"
        jobs.append(express_job(index, chain, fmt))
    sides = _strata(rng, 60)
    rng.shuffle(sides)
    for u, v, fmt in zip(_strata(rng, 60), sides, _balanced(rng, 60, ("text", "json"))):
        jobs.append(grid_job(1 + int(u * 30), int(v * 30), fmt))
    for rmax, n, fmt in zip(_balanced(rng, 100, (1, 2, 3, 4)), _balanced(rng, 100, torsions),
                            _balanced(rng, 100, ("text", "json"))):
        jobs.append(verify_job(rmax, n, fmt))
    for n, fmt in zip(_balanced(rng, 240, torsions), _balanced(rng, 240, ("text", "json"))):
        jobs.append(tensor_job(rng, _small_expr(rng), n, fmt))
    for u, n in zip(_strata(rng, 10), _balanced(rng, 10, torsions)):
        jobs.append(tensor_job(rng, _long_sum(rng, round(_geo(u, 100, 300))), n, "text"))
    for n, fmt in zip(_balanced(rng, 150, torsions), _balanced(rng, 150, ("text", "json"))):
        base = ("sum", (twist(rng.randint(-2, 2), rng.randint(1, 4)), twist(0, rng.randint(1, 3))))
        if rng.random() < 0.5:
            base = base[1][0]
        jobs.append(power_job(rng, base, rng.choice((-3, -2, 2, 3, 4, 5, 6)), n, fmt))
    return jobs


WORKLOADS = {
    "power_tower": power_tower,
    "oracle_sweep": oracle_sweep,
    "interactive_mix": interactive_mix,
}


def build(workload: str, seed: int) -> list[Job]:
    """The seeded, shuffled job list of ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
