"""Run configuration, sweep execution, group I/O, and report persistence.

A run checks each group's (coclass, check, parameter) tasks in one process;
with ``--jobs`` above 1 the groups are shared out over forked worker
processes, one group at a time.  Every randomized step is seeded from
(config seed, group, coclass) alone and every cache is per group or per
Cayley table, so identical configurations produce byte-identical reports at
any number of workers.  A task that raises gives an ``error`` record in
place of its results (``_guarded``, ``_sweep_group``), and the run's exit
status is nonzero.

This module imports every compute layer at module level; the command line
imports it only inside the commands that compute.  ``resolve_group`` and
``multiplier_report`` live with the layers they need (catalog, cohomology),
so ``projrep multiplier`` loads no representation layer; they are
re-exported here.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import catalog, group_contexts, resolve_group
from .cohomology import multiplier_report
from .errors import ConfigError, InputError, ProjrepError
from .groups import PiSet, default_pi_sets, is_solvable, o_pi, prime_divisors
from .reps import split_regular
from .tolerances import CHECK_NAMES, TOLERANCES
from .twisted import wedderburn
from .verify import (
    CheckResult,
    CoclassContext,
    _inapplicable,
    pi_decompose,
    verify_a5_negative_control,
    verify_basic,
    verify_clifford_laws,
    verify_ito_michler,
    verify_normal_sylow_criterion,
    verify_pi_theorem,
)

VERDICTS = ("pass", "fail", "inapplicable", "error")


@dataclass
class RunConfig:
    groups: list[str] = field(default_factory=lambda: ["all"])
    checks: list[str] = field(default_factory=lambda: list(CHECK_NAMES))
    primes: list[int] | None = None
    pi_sets: list[PiSet] | None = None
    seed: int = 0
    out: Path | None = None
    jobs: int = 1

    def validate(self) -> None:
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        for c in self.checks:
            if c not in CHECK_NAMES:
                raise ConfigError(f"unknown check {c!r}; "
                                  f"known: {', '.join(CHECK_NAMES)}")

    def group_names(self) -> list[str]:
        if self.groups == ["all"]:
            return [e.name for e in catalog()]
        return list(self.groups)


def _task_seed(seed: int, *parts: str) -> int:
    # any fixed 32-bit hash of the task's name serves; zlib's CRC-32 maps
    # no OpenSSL into the process, as hashlib would
    h = zlib.crc32("|".join(parts).encode())
    return (seed * 0x9E3779B1 + h) % (2**31)


def contexts_for(name: str, config: RunConfig) -> list[CoclassContext]:
    config.validate()
    ctxs = group_contexts(resolve_group(name))
    for ctx in ctxs:
        ctx.seed = _task_seed(config.seed, name, ctx.label)
    return ctxs


def _check_tasks(name: str, ctxs, config: RunConfig):
    """Yield one callable per (context, check, parameter) task of a group;
    each produces a CheckResult list (``_guarded``)."""
    G = ctxs[0].group
    primes = config.primes or list(prime_divisors(G.order))
    pis = config.pi_sets
    if pis is None:
        pis = default_pi_sets(G.order)
    for ctx in ctxs:
        def task(check, param, fn, label=ctx.label):
            return functools.partial(_guarded, fn, name, label, check, param)
        if "basic" in config.checks:
            yield task("basic", "-", lambda c=ctx: [verify_basic(c)])
        if "ito-michler" in config.checks:
            for p in primes:
                yield task("ito_michler", f"p={p}",
                           lambda c=ctx, q=p: [verify_ito_michler(c, q)])
        if "sylow-criterion" in config.checks:
            for p in primes:
                yield task("normal_sylow_criterion", f"p={p}",
                           lambda c=ctx, q=p:
                           [verify_normal_sylow_criterion(c, q)])
        if "pi-theorem" in config.checks:
            for pi in pis:
                yield task("pi_theorem", f"pi={pi.label()}",
                           lambda c=ctx, q=pi: [verify_pi_theorem(c, q)])
        if "clifford-laws" in config.checks:
            yield task("clifford_laws", "-", lambda c=ctx: _clifford_check(c))
        if "a5-control" in config.checks and name == "A5" \
                and ctx.label == "[0]":
            yield task("a5_negative_control", "-",
                       lambda c=ctx: [verify_a5_negative_control(c)])
        if "decompose" in config.checks:
            yield task("pi_decomposition", "-",
                       lambda c=ctx: _decompose_check(c))


def _guarded(fn, group: str, coclass: str, check: str,
             param: str) -> list[CheckResult]:
    """Run one task.  A ProjrepError that is no InputError ends it with one
    ``error`` record, named as the task's own results are."""
    try:
        return fn()
    except InputError:
        raise
    except ProjrepError as exc:
        return [_error(group, coclass, check, param, exc)]


def _clifford_check(ctx: CoclassContext) -> list[CheckResult]:
    """Clifford dimension laws over one normal core per prime."""
    G = ctx.group
    cores = []
    for p in prime_divisors(G.order):
        N = o_pi(G, PiSet([p]).complement_in(G.order))
        if 1 < N.order < G.order and N not in cores:
            cores.append(N)
    if not cores:
        return [_inapplicable("clifford_laws", ctx, "-",
                              "no proper nontrivial p-complement core")]
    return [verify_clifford_laws(
        ctx, N, split_regular(ctx.restricted(N), seed=ctx.seed)[-1])
        for N in cores]


def _decompose_check(ctx: CoclassContext) -> list[CheckResult]:
    G = ctx.group
    if not is_solvable(G) or G.order > 60:
        return [_inapplicable(
            "pi_decomposition", ctx, "-",
            "certificates are swept on solvable groups of order <= 60")]
    out = []
    for p in prime_divisors(G.order):
        pi = PiSet([p])
        for V in ctx.irreps:
            cert, rep = pi_decompose(V, pi, ctx)
            rep.witnesses["index"] = cert.index
            rep.witnesses["factor_degrees"] = cert.factor_degrees
            rep.witnesses["residual"] = cert.residual
            out.append(rep)
    return out


def _error(group: str, coclass: str, check: str, param: str,
           exc: ProjrepError) -> CheckResult:
    return CheckResult(name=check, group=group, coclass=coclass, param=param,
                       lhs=None, rhs=None, verdict="error",
                       witnesses={"error": type(exc).__name__},
                       reason=str(exc))


def _sweep_group(name: str, config: RunConfig) -> list[CheckResult]:
    """Every check of one group, run in this process.

    A ProjrepError that is no InputError becomes one ``error`` record: of
    the task it ends (``_guarded``), or of the group (check ``contexts``)
    when its contexts cannot be built.  The other tasks run as they would
    without it.
    """
    try:
        ctxs = contexts_for(name, config)
    except InputError:
        raise
    except ProjrepError as exc:
        return [_error(name, "-", "contexts", "-", exc)]
    return [r for task in _check_tasks(name, ctxs, config) for r in task()]


def _worker_count(jobs: int, groups: int) -> int:
    """Worker processes for a sweep: at most one per job, group and usable
    CPU.  1 means the sweep runs in the calling process."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, groups, cpus))


def run(config: RunConfig) -> tuple[int, list[CheckResult]]:
    """Execute the configured sweep; returns (exit_status, results)."""
    config.validate()
    names = config.group_names()
    workers = _worker_count(config.jobs, len(names))
    if workers > 1:
        # imported here: single-shot commands never pay for multiprocessing.
        # fork: workers inherit the imported modules instead of importing
        # them again; the caches a worker fills stay in that worker
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
            chunks = list(pool.map(_sweep_group, names,
                                   [config] * len(names)))
    else:
        chunks = [_sweep_group(name, config) for name in names]
    # group_names() order and a stable sort: ties fall as in a serial run
    results = [r for chunk in chunks for r in chunk]
    results.sort(key=lambda r: (r.group, r.coclass, r.name, r.param))
    if config.out is not None:
        write_reports(results, config)
    status = 1 if any(r.verdict in ("fail", "error") for r in results) else 0
    return status, results


def write_reports(results: list[CheckResult], config: RunConfig) -> None:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.jsonl", "w") as fh:
        for r in results:
            record = r.to_dict()
            record["seed"] = config.seed
            record["tolerances"] = TOLERANCES
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    counts: dict[tuple[str, str], dict[str, int]] = {}
    for r in results:
        row = counts.setdefault((r.group, r.name), dict.fromkeys(VERDICTS, 0))
        row[r.verdict] += 1
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "check", *VERDICTS])
        for (group, check), row in sorted(counts.items()):
            writer.writerow([group, check, *row.values()])


# -- single-shot reports ------------------------------------------------------


def degrees_report(ctx: CoclassContext) -> dict:
    w = wedderburn(ctx.algebra, seed=ctx.seed)
    return {
        "group": ctx.group.name,
        "coclass": ctx.label,
        "coclass_order": ctx.order,
        "degrees": w.degrees,
        "c_regular_classes": ctx.regular_data.regular_representatives(),
        "seed": ctx.seed,
        "residual": w.residual,
        "cocycle_hash": ctx.cocycle.hash_hex(),
        "tolerances": dict(TOLERANCES),
    }


def regular_classes_report(ctx: CoclassContext) -> dict:
    data = ctx.regular_data
    return {
        "group": ctx.group.name,
        "coclass": ctx.label,
        "regular_count": data.regular_count,
        "flags": data.flags,
        "representatives": data.regular_representatives(),
        "cocycle_hash": ctx.cocycle.hash_hex(),
        "seed": ctx.seed,
    }
