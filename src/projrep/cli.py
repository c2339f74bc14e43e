"""Command-line front end for the projective representation workbench.

Each command imports the layers it runs when it runs, so ``catalog``,
``--help``, usage errors and shell completion start without numpy.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from .catalog import catalog
from .errors import BadCoclassIndex, ProjrepError
from .tolerances import CHECK_NAMES, DEFAULT_H2_CAP, DEFAULT_ORDER_CAP

if TYPE_CHECKING:
    from .groups import PiSet


def _parse_pi(value: str | None) -> PiSet | None:
    if value is None:
        return None
    from .groups import PiSet
    try:
        return PiSet(int(v) for v in value.split(","))
    except ValueError as exc:
        raise click.BadParameter(f"bad prime set {value!r}") from exc


@click.group()
@click.option("--seed", type=int, default=0, show_default=True,
              help="Base seed for all randomized numerics.")
@click.option("--h2-cap", type=int, default=DEFAULT_H2_CAP, show_default=True,
              help="Largest order for direct multiplier computation.")
@click.option("--order-cap", type=int, default=DEFAULT_ORDER_CAP,
              show_default=True, help="Largest admissible group order.")
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="Directory for JSONL results and the CSV summary.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Worker processes for verification sweeps, one group "
                   "each, capped at the usable CPUs.")
@click.pass_context
def main(ctx, seed, h2_cap, order_cap, out, jobs):
    """Projective representation workbench for small finite groups."""
    ctx.obj = dict(seed=seed, h2_cap=h2_cap, order_cap=order_cap, out=out,
                   jobs=jobs)


def _config(options: dict, group: str):
    """The run configuration of a command on one group."""
    from .workbench import RunConfig
    return RunConfig(groups=[group], **options)


@main.command("catalog")
def catalog_cmd():
    """List the built-in groups."""
    for e in catalog():
        flags = "solvable" if e.solvable else "not solvable"
        note = f"  ({e.notes})" if e.notes else ""
        click.echo(f"{e.name:12s} order {e.order:4d}  {flags}{note}")


def _context(options, group, coclass_index):
    from .workbench import contexts_for
    ctxs = contexts_for(group, _config(options, group))
    if not 0 <= coclass_index < len(ctxs):
        raise BadCoclassIndex(
            f"{group} has {len(ctxs)} coclasses; index {coclass_index} "
            "is out of range")
    return ctxs[coclass_index]


@main.command()
@click.argument("group")
@click.pass_obj
def multiplier(options, group):
    """Invariant factors and basis hashes of the multiplier."""
    from .catalog import resolve_group
    from .cohomology import multiplier_report
    G = resolve_group(group, options["order_cap"])
    click.echo(json.dumps(multiplier_report(G, h2_cap=options["h2_cap"]),
                          sort_keys=True))


@main.command()
@click.argument("group")
@click.option("--coclass", "coclass_index", type=int, default=0,
              show_default=True, help="Lexicographic coclass index.")
@click.pass_obj
def degrees(options, group, coclass_index):
    """Irreducible projective degrees for one coclass."""
    from .workbench import degrees_report
    ctx = _context(options, group, coclass_index)
    click.echo(json.dumps(degrees_report(ctx), sort_keys=True))


@main.command("regular-classes")
@click.argument("group")
@click.option("--coclass", "coclass_index", type=int, default=0,
              show_default=True)
@click.pass_obj
def regular_classes_cmd(options, group, coclass_index):
    """c-regular conjugacy classes for one coclass."""
    from .workbench import regular_classes_report
    ctx = _context(options, group, coclass_index)
    click.echo(json.dumps(regular_classes_report(ctx), sort_keys=True))


@main.command()
@click.argument("group")
@click.option("--check", "check", type=click.Choice(CHECK_NAMES),
              default=None, help="Run a single check instead of all.")
@click.option("--p", "prime", type=int, default=None,
              help="Restrict prime-indexed checks to one prime.")
@click.option("--pi", "pi", type=str, default=None,
              help="Comma-separated primes for set-indexed checks.")
@click.pass_obj
def verify(options, group, check, prime, pi):
    """Run theorem checks; nonzero exit iff any applicable check fails."""
    from .workbench import run
    config = _config(options, group)
    if check:
        config.checks = [check]
    if prime is not None:
        config.primes = [prime]
    pset = _parse_pi(pi)
    if pset is not None:
        config.pi_sets = [pset]
    status, results = run(config)
    for r in results:
        click.echo(f"{r.verdict.upper():13s} {r.name:22s} {r.group:10s} "
                   f"c={r.coclass:8s} {r.param}")
    counts = {"pass": 0, "fail": 0, "inapplicable": 0}
    for r in results:
        counts[r.verdict] += 1
    click.echo(f"# pass={counts['pass']} fail={counts['fail']} "
               f"inapplicable={counts['inapplicable']}")
    sys.exit(status)


@main.command()
@click.argument("group")
@click.option("--coclass", "coclass_index", type=int, default=0,
              show_default=True)
@click.option("--pi", "pi", type=str, required=True,
              help="Comma-separated primes defining the split.")
@click.pass_obj
def decompose(options, group, coclass_index, pi):
    """Decomposition certificates along the pi-series, one per irreducible."""
    from .verify import pi_decompose
    ctx = _context(options, group, coclass_index)
    pset = _parse_pi(pi)
    records = []
    for V in ctx.irreps:
        cert, rep = pi_decompose(V, pset, ctx)
        records.append({
            "degree": V.degree,
            "subgroup_order": cert.subgroup.order,
            "index": cert.index,
            "factor_degrees": cert.factor_degrees,
            "intertwiner_dim": cert.intertwiner_dim,
            "residual": cert.residual,
            "verdict": rep.verdict,
        })
    click.echo(json.dumps({"group": ctx.group.name, "coclass": ctx.label,
                           "pi": pset.label(), "certificates": records,
                           "seed": ctx.seed}, sort_keys=True))
    if any(r["verdict"] != "pass" for r in records):
        sys.exit(1)


def entry() -> None:
    try:
        main(auto_envvar_prefix="PROJREP")
    except ProjrepError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    entry()
