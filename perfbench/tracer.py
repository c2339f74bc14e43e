"""Run one projrep command with its public layer functions traced from outside.

    python3 perfbench/tracer.py SPANS.jsonl cli multiplier S4
    python3 perfbench/tracer.py SPANS.jsonl sweep --jobs 2 --seed 0 --out DIR S4

Every function in LAYERS is replaced by a timing wrapper at every module
binding, because ``from .x import y`` copies the name into each importing
module.  Each call becomes a span (id, parent, name, thread, start, end, key);
span stacks are per thread, and sweep tasks handed to the thread pool keep
the span that created them as parent.  Spans stay in memory and are written
as JSON lines when the command ends, whatever its exit status.  ``summarize``
turns span files into the per-layer table.

The program itself is not changed: this file imports it, patches names and
then runs the same entry point a user runs.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = {
    "cohomology": ["schur_multiplier", "restrict_coclass",
                   "is_trivial_coclass_numeric",
                   "multiplier_from_central_extension"],
    "verify": ["verify_basic", "verify_ito_michler",
               "verify_normal_sylow_criterion", "verify_pi_theorem",
               "verify_clifford_laws", "pi_decompose",
               "decompose_along_series"],
    "reps": ["intertwiner_space", "tensor_reps", "clifford_extend",
             "split_regular", "induce_rep", "factor_over_extension",
             "decompose", "inertia_group", "restrict_rep", "conjugate_rep"],
    "twisted": ["wedderburn", "c_regular_classes", "center_basis"],
    "groups": ["o_pi", "quotient_group", "conjugacy_classes", "pi_series",
               "alternating_pi_series", "hall_subgroup", "build_group"],
    "catalog": ["get_group", "coclass_contexts"],
    "workbench": ["contexts_for", "write_reports", "run"],
}

FUNCTIONS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]

# Entry points whose inclusive time is reported next to their self time.
TOTAL_OF = [f"verify.{fn}" for fn in LAYERS["verify"]] + ["workbench.contexts_for"]

TASK = "workbench.task"


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _group_key(G, *args, **kwargs) -> str:
    return _digest(G.mul)


def _algebra_key(A, *args, **kwargs) -> str:
    return _digest(A.group.mul, A.table)


# Reuse ratios: the key identifies the input, so distinct keys / calls is the
# share of calls that could not have been served from a cache.
KEYS = {
    "cohomology.schur_multiplier": _group_key,
    "groups.conjugacy_classes": _group_key,
    "twisted.wedderburn": _algebra_key,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, parent=None, key=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        k = key(*args, **kwargs) if key else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(),
                               t0, t1, k))

    def wrap(self, name, fn):
        key = KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, key=key)
        return traced

    def install(self) -> list[str]:
        """Patch every binding of every listed function; returns the
        listed names the program does not define (their metrics read 0, so
        a version that removes one still traces)."""
        import projrep  # noqa: F401  (imports every layer module)
        import projrep.cli  # noqa: F401
        import projrep.workbench as workbench
        modules = [m for n, m in list(sys.modules.items())
                   if n == "projrep" or n.startswith("projrep.")]
        missing = []
        for name in FUNCTIONS:
            layer, fn_name = name.split(".")
            orig = getattr(sys.modules[f"projrep.{layer}"], fn_name, None)
            if orig is None:
                missing.append(name)
                continue
            wrapped = self.wrap(name, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
        # Sweep tasks: one span per task, parented to the span that
        # created it even when a pool thread runs it.
        tasks = getattr(workbench, "_check_tasks", None)
        if tasks is not None:
            @functools.wraps(tasks)
            def traced_tasks(*args, **kwargs):
                parent = self.current()
                for task in tasks(*args, **kwargs):
                    yield functools.partial(self.call, TASK, task, (), {},
                                            parent)
            workbench._check_tasks = traced_tasks
        return missing

    def dump(self, path: Path, missing: list[str]) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"missing": missing}) + "\n")
            for span in sorted(self.spans, key=lambda s: s[0]):
                fh.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> tuple[list[tuple], list[str]]:
    with open(path) as fh:
        header = json.loads(fh.readline())
        return [tuple(json.loads(line)) for line in fh], header["missing"]


def _covered(intervals: list[tuple[float, float]], t0: float,
             t1: float) -> float:
    """Length of [t0, t1] covered by the union of the child intervals.

    Children in the same thread never overlap; tasks a pool runs for the
    span do, so self time is the time no child of the span was running."""
    total, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(span_files: list[Path], jobs: int) -> dict:
    """Per-function self/total seconds, calls and reuse ratios, summed over
    the span files (one file per traced process)."""
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    keys = defaultdict(set)
    task_s = 0.0
    run_s = 0.0
    missing: set[str] = set()
    for path in span_files:
        spans, absent = read_spans(path)
        missing.update(absent)
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for span in spans:
            if span[1] in by_id:
                children[span[1]].append((span[4], span[5]))
        for sid, parent, name, thread, t0, t1, key in spans:
            dt = t1 - t0
            self_s[name] += dt - _covered(children.get(sid, []), t0, t1)
            calls[name] += 1
            if key is not None:
                keys[name].add(key)
            if name == TASK:
                task_s += dt
            elif name == "workbench.run":
                run_s += dt
            if name in TOTAL_OF:
                # inclusive time of the outermost call only
                up = by_id.get(parent)
                while up is not None and up[2] != name:
                    up = by_id.get(up[1])
                if up is None:
                    total_s[name] += dt
    table = {}
    for name in FUNCTIONS:
        table[f"{name}.self_s"] = self_s[name]
        table[f"{name}.calls"] = calls[name]
    for name in TOTAL_OF:
        table[f"{name}.total_s"] = total_s[name]
    for name in KEYS:
        table[f"{name}.distinct_share"] = (
            len(keys[name]) / calls[name] if calls[name] else 0.0)
    table["workbench.busy_share"] = task_s / (run_s * jobs) if run_s else 0.0
    return {
        "table": table,
        "named_self_s": sum(self_s[n] for n in FUNCTIONS),
        "jobs": jobs,
        "task_glue_s": self_s[TASK],
        "missing": sorted(missing),
    }


def main(argv: list[str]) -> None:
    spans_path, target, *args = argv
    tracer = Tracer()
    missing = tracer.install()
    try:
        if target == "cli":
            from projrep.cli import entry
            sys.argv = ["projrep", *args]
            entry()
        elif target == "sweep":
            from sweep import main as sweep_main
            sys.exit(sweep_main(args))
        else:
            sys.exit(f"unknown target {target!r}")
    finally:
        tracer.dump(Path(spans_path), missing)


if __name__ == "__main__":
    main(sys.argv[1:])
