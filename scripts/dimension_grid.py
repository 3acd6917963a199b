#!/usr/bin/env python3
"""Print the dim R(E) vs dim G correspondence over a (rank, torsion) grid.

Each cell classifies E = L ⊗ F_rank for a twisting line bundle L of the
given torsion order (0 = non-torsion) and compares the Krull dimension of
the representation ring with the dimension of the minimal trivializing
group scheme.
"""

import argparse

from atiyah import correspondence_grid


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rmax", type=int, default=10)
    parser.add_argument("--nmax", type=int, default=12)
    parser.add_argument(
        "--details", action="store_true", help="also print each cell's presentation"
    )
    args = parser.parse_args()

    reports = correspondence_grid(args.rmax, args.nmax)
    print(f"{'rank':>4} {'torsion':>7} {'dim R':>5} {'dim G':>5}  presentation / group")
    for report in reports:
        extra = ""
        if args.details:
            extra = f"  {report.presentation} / {report.group}"
            if report.minimality_note:
                extra += "  [minimal beyond ring modulus]"
        mark = "" if report.correspondence_holds else "  <-- MISMATCH"
        print(
            f"{report.rank:>4} {report.torsion:>7} {report.krull_dim:>5} "
            f"{report.group.dimension:>5}{extra}{mark}"
        )
    holding = sum(1 for r in reports if r.correspondence_holds)
    print(f"\ncorrespondence holds in {holding}/{len(reports)} cells")


if __name__ == "__main__":
    main()
