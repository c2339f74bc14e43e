"""Command-line front end for the projective representation workbench.

One standard-library ``argparse`` parser.  Each command imports the layers
it runs when it runs, so ``catalog``, ``--help`` and usage errors start
without numpy.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .catalog import catalog
from .errors import BadCoclassIndex, ProjrepError
from .tolerances import CHECK_NAMES


def positive(text: str) -> int:
    """A positive integer read from the command line; argparse reports a
    ValueError."""
    n = int(text)
    if n < 1:
        raise ValueError(text)
    return n


GLOBAL_OPTIONS = (
    ("--seed", int, 0, "Base seed for all randomized numerics."),
    ("--out", Path, None, "Directory for JSONL results and the CSV summary."),
    ("--jobs", positive, 1, "Worker processes for verification sweeps, one "
                            "group each, capped at the usable CPUs."),
)


def prime(text: str) -> int:
    """A prime read from the command line; argparse reports a ValueError."""
    p = int(text)
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(text)
    return p


def primes(text: str) -> list[int]:
    return [prime(v) for v in text.split(",")]


def _config(args):
    """The run configuration of a command on its group."""
    from .workbench import RunConfig
    return RunConfig(groups=[args.group], seed=args.seed, out=args.out,
                     jobs=args.jobs)


def catalog_cmd(args):
    """List the built-in groups."""
    for e in catalog():
        flags = "solvable" if e.solvable else "not solvable"
        note = f"  ({e.notes})" if e.notes else ""
        print(f"{e.name:12s} order {e.order:4d}  {flags}{note}")


def _context(args):
    from .workbench import contexts_for
    ctxs = contexts_for(args.group, _config(args))
    if not 0 <= args.coclass < len(ctxs):
        raise BadCoclassIndex(
            f"{args.group} has {len(ctxs)} coclasses; index {args.coclass} "
            "is out of range")
    return ctxs[args.coclass]


def multiplier(args):
    """Invariant factors and basis hashes of the multiplier."""
    from .catalog import resolve_group
    from .cohomology import multiplier_report
    G = resolve_group(args.group)
    print(json.dumps(multiplier_report(G), sort_keys=True))


def degrees(args):
    """Irreducible projective degrees for one coclass."""
    from .workbench import degrees_report
    print(json.dumps(degrees_report(_context(args)), sort_keys=True))


def regular_classes_cmd(args):
    """c-regular conjugacy classes for one coclass."""
    from .workbench import regular_classes_report
    print(json.dumps(regular_classes_report(_context(args)), sort_keys=True))


def verify(args):
    """Run theorem checks; nonzero exit iff any applicable check fails or
    errs."""
    from .workbench import run
    from .groups import PiSet
    config = _config(args)
    if args.check:
        config.checks = [args.check]
    if args.prime is not None:
        config.primes = [args.prime]
    if args.pi is not None:
        config.pi_sets = [PiSet(args.pi)]
    status, results = run(config)
    for r in results:
        error = f"  {r.witnesses['error']}: {r.reason}" \
            if r.verdict == "error" else ""
        print(f"{r.verdict.upper():13s} {r.name:22s} {r.group:10s} "
              f"c={r.coclass:8s} {r.param}{error}")
    counts = {v: sum(r.verdict == v for r in results)
              for v in ("pass", "fail", "inapplicable")}
    print(f"# pass={counts['pass']} fail={counts['fail']} "
          f"inapplicable={counts['inapplicable']}")
    return status


def decompose(args):
    """Decomposition certificates along the pi-series, one per irreducible."""
    from .verify import pi_decompose
    from .groups import PiSet
    ctx = _context(args)
    pset = PiSet(args.pi)
    records = []
    for V in ctx.irreps:
        cert, rep = pi_decompose(V, pset, ctx)
        records.append(dict(
            degree=V.degree, subgroup_order=cert.subgroup.order,
            index=cert.index, factor_degrees=cert.factor_degrees,
            intertwiner_dim=cert.intertwiner_dim, residual=cert.residual,
            verdict=rep.verdict))
    print(json.dumps({"group": ctx.group.name, "coclass": ctx.label,
                      "pi": pset.label(), "certificates": records,
                      "seed": ctx.seed}, sort_keys=True))
    return int(any(r["verdict"] != "pass" for r in records))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projrep", allow_abbrev=False,
        description="Projective representation workbench for small finite "
                    "groups.")
    for flag, kind, default, text in GLOBAL_OPTIONS:
        env = "PROJREP_" + flag[2:].upper().replace("-", "_")
        # PROJREP_<OPTION> is parsed by the type: a bad value is a usage error
        default = os.environ.get(env) or default
        parser.add_argument(flag, type=kind, default=default,
                            help=text + " (default: %(default)s)")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND",
                                     required=True)
    subs = {}
    for handler in (catalog_cmd, multiplier, degrees, regular_classes_cmd,
                    verify, decompose):
        name = handler.__name__.removesuffix("_cmd").replace("_", "-")
        sub = subs[name] = commands.add_parser(
            name, allow_abbrev=False, help=handler.__doc__,
            description=handler.__doc__)
        sub.set_defaults(handler=handler)
        if name != "catalog":
            sub.add_argument("group")
    for name in ("degrees", "regular-classes", "decompose"):
        subs[name].add_argument("--coclass", type=int, default=0, help=(
            "Lexicographic coclass index. (default: %(default)s)"))
    checks, split = subs["verify"], subs["decompose"]
    checks.add_argument("--check", choices=CHECK_NAMES,
                        help="Run a single check instead of all.")
    checks.add_argument("--p", dest="prime", metavar="P", type=prime,
                        help="Restrict prime-indexed checks to one prime.")
    checks.add_argument("--pi", type=primes,
                        help="Comma-separated primes for set-indexed checks.")
    split.add_argument("--pi", type=primes, required=True,
                       help="Comma-separated primes defining the split.")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns its exit status.  A usage error exits 2."""
    args = _parser().parse_args(argv)
    return args.handler(args) or 0


def entry() -> None:
    try:
        sys.exit(main())
    except ProjrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    entry()
