#!/usr/bin/env python3
"""Run the builtin property checks over both problems and both variants.

Thin wrapper around ``cd2d verify``; prints one block per combination and
exits nonzero if any check failed.  ``--epsilon`` is repeatable; every
value is passed on to ``cd2d verify``, which checks each of them.  With the
default problem data the interface rows break the matrix sign structure, so
a nonzero exit here is the expected, documented outcome; the point of the
script is the per-check detail lines.
"""
import argparse
import sys

from cd2d import cli


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epsilon", type=float, action="append", default=None,
                    help="perturbation parameter (repeatable; default 1e-3)")
    args = ap.parse_args(argv)
    epsilons = args.epsilon or [1e-3]
    eps_args = [arg for eps in epsilons for arg in ("--epsilon", str(eps))]

    worst = 0
    for problem in ("Example1", "Example2"):
        for variant in ("transformed", "raw"):
            print(f"--- {problem}, {variant} rows, eps = "
                  + ", ".join(f"{eps:g}" for eps in epsilons) + " ---")
            rc = cli.main(["verify", "--problem", problem,
                           "--variant", variant, *eps_args])
            worst = max(worst, rc)
            print()
    return worst


if __name__ == "__main__":
    sys.exit(main())
