"""Benchmark for projrep: catalog sweeps and cold single-shot commands.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 35 --trace 0

Run it from the root of a source checkout; the program is taken from
``./src`` (nothing is installed).  One closed-loop client starts one projrep
process at a time, waits for it, checks its output and only then starts the
next.  ``--seed`` is passed to projrep as its ``--seed``; the group lists are
fixed.

Workloads (why each was chosen):

  sweep      ``verify`` over SWEEP_GROUPS with one job, in a fresh process,
             repeated for ``--seconds``.  The paper's main product; time goes
             to pi_decompose, reps, groups and the Schur multiplier.
  sweep_par  the same sweep with ``--jobs`` = nproc (at least 2), the only
             workload that uses the workbench thread pool.  Its
             ``results.jsonl`` must be byte-identical to a one-job sweep made
             in the same run.
  shots      the single-shot CLI calls in SHOTS, each a cold process that pays
             for import, group build and one H^2; the sweep machinery never
             runs.  Passes over the whole list repeat for ``--seconds``, and
             the seconds spent on each command kind are printed and recorded.

``--trace 0`` prints the end-to-end metrics: setup_s (median of SETUP_RUNS
fresh ``projrep catalog`` processes), wall_s (median pass), checks_per_s
(verdicts per second of a pass), peak_rss_mb (largest child RSS) and
ok_share (1 - failed / attempted operations).  Only operations that passed
their checks are timed.

``--trace 1`` runs the same passes and then one more pass under
``tracer.py``; it prints the per-layer table (self seconds and calls of every
traced function, inclusive seconds of the verify entry points, reuse ratios,
workbench busy share) and the tracing overhead (traced pass minus untraced
median).

The last stdout line is the JSON result.  A record of the run (environment,
every operation, its checks) and, for traced runs, the spans and the layer
table are written under ``perfbench/out/``.

``--full`` makes one pass of a sweep workload over the whole catalog, the
``projrep verify all`` of the ROADMAP baseline (see BASELINE.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from tracer import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PY = sys.executable

SETUP_RUNS = 7
# No run may take longer than the budget; no new pass starts after LAST_START.
BUDGET_S = 170.0
LAST_START_S = 110.0

# A cross-section of the catalog that keeps the full sweep's mix of layers
# (see BASELINE.md) in a pass of a few seconds.
SWEEP_GROUPS = ["E27+", "S4", "SL(2,3)", "A5", "C5xC5:C4"]
SWEEP_EXPECTED = {"pass": 139, "fail": 0, "inapplicable": 39}
FULL_EXPECTED = {"pass": 1961, "fail": 0, "inapplicable": 134}

D20 = {
    "name": "D20",
    "points": 20,
    "generators": [[(i + 1) % 20 + 1 for i in range(20)],
                   [(-i) % 20 + 1 for i in range(20)]],
}
D20_FILE = OUT / "D20.json"

# (kind, projrep arguments, expectation passed to the kind's check)
SHOTS = [
    ("multiplier", ["multiplier", "S4"], [2]),
    ("multiplier", ["multiplier", "S3xS3"], [2]),
    ("multiplier", ["multiplier", "C6xC6"], [6]),
    ("multiplier", ["multiplier", "A5"], [2]),
    ("multiplier", ["multiplier", str(D20_FILE.relative_to(ROOT))], [2]),
    ("degrees", ["degrees", "A5", "--coclass", "1"], 60),
    ("degrees", ["degrees", "S4", "--coclass", "1"], 24),
    ("degrees", ["degrees", "E27+", "--coclass", "1"], 27),
    ("degrees", ["degrees", "SL(2,3)", "--coclass", "0"], 24),
    ("regular_classes", ["regular-classes", "A5", "--coclass", "1"], 4),
    ("regular_classes", ["regular-classes", "C6xC6", "--coclass", "3"], 9),
    ("decompose", ["decompose", "S4", "--coclass", "1", "--pi", "2"], None),
    ("decompose", ["decompose", "SL(2,3)", "--coclass", "0", "--pi", "3"],
     None),
    ("decompose", ["decompose", "C2xA4", "--coclass", "1", "--pi", "2"], None),
    ("verify", ["verify", "S4"], {"pass": 33, "fail": 0, "inapplicable": 1}),
]

# Recorded with every run and left as the caller set them.
ENV_VARS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED"]
SUMMARY = re.compile(r"^# pass=(\d+) fail=(\d+) inapplicable=(\d+)$")


# -- child processes ---------------------------------------------------------


@dataclass
class Proc:
    rc: int
    wall: float
    rss_mb: float
    out: str
    err: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str], deadline: float) -> Proc:
    """Run one process to completion; wall time and peak RSS are its own."""
    argv = [str(a) for a in argv]
    env = child_env()
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=env)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024,
                    out.read().decode(errors="replace"),
                    err.read().decode(errors="replace"))


def summary_counts(text: str) -> dict | None:
    lines = text.strip().splitlines()
    m = SUMMARY.match(lines[-1]) if lines else None
    if m is None:
        return None
    return dict(zip(("pass", "fail", "inapplicable"), map(int, m.groups())))


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# -- operations ----------------------------------------------------------------


class Ledger:
    """Every operation attempted in a run, with its checks."""

    def __init__(self):
        self.ops: list[dict] = []

    def add(self, kind: str, p: Proc, problems: list[str], **extra) -> dict:
        op = {"kind": kind, "ok": not problems, "wall_s": p.wall,
              "rss_mb": p.rss_mb, "rc": p.rc, "problems": problems, **extra}
        if problems:
            op["stderr_tail"] = p.err[-2000:]
        self.ops.append(op)
        return op

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op["ok"] for op in self.ops)


def setup_catalog(ledger: Ledger, deadline: float) -> list[float]:
    """Fresh interpreters listing the catalog: the benchmark's set-up time."""
    needed = set(SWEEP_GROUPS) | {a[1] for _, a, _ in SHOTS if "/" not in a[1]}
    walls = []
    for _ in range(SETUP_RUNS):
        p = run_child([PY, "-m", "projrep.cli", "catalog"], deadline)
        names = {line.split()[0] for line in p.out.splitlines() if line}
        problems = [] if p.rc == 0 else [f"exit {p.rc}"]
        if not needed <= names:
            problems.append(f"catalog lacks {sorted(needed - names)}")
        ledger.add("catalog", p, problems)
        if not problems:
            walls.append(p.wall)
    return walls


def sweep_pass(ledger: Ledger, cfg: dict, jobs: int, deadline: float,
               reference: str | None, spans: Path | None = None) -> dict:
    out_dir = OUT / f"sweep-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    args = ["--jobs", jobs, "--seed", cfg["seed"], "--out", out_dir,
            *cfg["groups"]]
    if spans is None:
        argv = [PY, BENCH / "sweep.py", *args]
    else:
        argv = [PY, BENCH / "tracer.py", spans, "sweep", *args]
    p = run_child(argv, deadline)
    problems = [] if p.rc == 0 else [f"exit {p.rc}"]
    expected = cfg["expected"]
    if summary_counts(p.out) != expected:
        problems.append(f"verdict counts {summary_counts(p.out)} != {expected}")
    sha = None
    try:
        data = (out_dir / "results.jsonl").read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        counts = Counter(json.loads(line)["verdict"]
                         for line in data.splitlines())
        if {k: counts[k] for k in expected} != expected \
                or sum(counts.values()) != sum(expected.values()):
            problems.append(f"results.jsonl verdicts {dict(counts)}")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"results.jsonl unreadable: {exc}")
    if reference is not None and sha != reference:
        problems.append(f"results.jsonl sha256 {sha} != {reference}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return ledger.add("sweep", p, problems, jobs=jobs, sha256=sha,
                      verdicts=sum(expected.values()),
                      traced=spans is not None)


def _check_multiplier(p: Proc, invariants) -> list[str]:
    got = last_json(p.out)["invariants"]
    return [] if got == invariants else [f"invariants {got} != {invariants}"]


def _check_degrees(p: Proc, order) -> list[str]:
    doc = last_json(p.out)
    degrees = doc["degrees"]
    problems = []
    if sum(d * d for d in degrees) != order:
        problems.append(f"sum of squared degrees {degrees} != {order}")
    if len(degrees) != len(doc["c_regular_classes"]):
        problems.append("degree count != c-regular class count")
    return problems


def _check_regular(p: Proc, count) -> list[str]:
    doc = last_json(p.out)
    got = (doc["regular_count"], sum(doc["flags"]),
           len(doc["representatives"]))
    return [] if got == (count,) * 3 else [f"regular classes {got} != {count}"]


def _check_decompose(p: Proc, _) -> list[str]:
    certs = last_json(p.out)["certificates"]
    if not certs or any(c["verdict"] != "pass" for c in certs):
        return [f"certificate verdicts {[c['verdict'] for c in certs]}"]
    return []


def _check_verify(p: Proc, counts) -> list[str]:
    got = summary_counts(p.out)
    return [] if got == counts else [f"verdict counts {got} != {counts}"]


CHECKS = {"multiplier": _check_multiplier, "degrees": _check_degrees,
          "regular_classes": _check_regular, "decompose": _check_decompose,
          "verify": _check_verify}


def _verdicts(kind: str, p: Proc) -> int:
    if kind == "decompose":
        return len(last_json(p.out)["certificates"])
    if kind == "verify":
        return sum(summary_counts(p.out).values())
    return 0


def shots_pass(ledger: Ledger, cfg: dict, deadline: float,
               spans_dir: Path | None = None) -> list[dict]:
    ops = []
    for i, (kind, args, expect) in enumerate(SHOTS):
        cli = ["--seed", cfg["seed"], *args]
        if spans_dir is None:
            argv = [PY, "-m", "projrep.cli", *cli]
        else:
            argv = [PY, BENCH / "tracer.py", spans_dir / f"{i:02d}.jsonl",
                    "cli", *cli]
        p = run_child(argv, deadline)
        problems = [] if p.rc == 0 else [f"exit {p.rc}"]
        verdicts = 0
        try:
            problems += CHECKS[kind](p, expect)
            verdicts = _verdicts(kind, p)
        except (ValueError, KeyError, IndexError, TypeError,
                AttributeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        ops.append(ledger.add(kind, p, problems, args=args, verdicts=verdicts,
                              traced=spans_dir is not None))
    return ops


# -- workloads -------------------------------------------------------------------


def repeat(seconds: float, start: float, one_pass) -> list:
    """Whole passes for ``seconds``: at least one, and another only while
    a pass of the mean length still ends within ``seconds``."""
    t0 = time.monotonic()
    passes = [one_pass()]
    while True:
        now = time.monotonic()
        mean = (now - t0) / len(passes)
        if now + mean - t0 > seconds or now - start > LAST_START_S:
            return passes
        passes.append(one_pass())


def run_sweep(cfg: dict, ledger: Ledger, jobs: int, trace_dir: Path | None):
    deadline = cfg["deadline"]
    # Every pass must reproduce the reference results.jsonl byte for byte:
    # a one-job sweep of the same config, or else the first pass.
    reference = None
    if jobs > 1:
        reference = sweep_pass(ledger, cfg, 1, deadline, None)["sha256"]

    def one():
        nonlocal reference
        op = sweep_pass(ledger, cfg, jobs, deadline, reference)
        reference = reference or op["sha256"]
        return op

    passes = repeat(cfg["seconds"], cfg["start"], one)
    good = [op for op in passes if op["ok"]]
    result = {
        "wall_s": [op["wall_s"] for op in good],
        "checks_per_s": [op["verdicts"] / op["wall_s"] for op in good],
        "rss_mb": [op["rss_mb"] for op in good],
        "sha256": sorted({op["sha256"] for op in passes if op["sha256"]}),
    }
    if trace_dir is not None:
        spans = trace_dir / "sweep.jsonl"
        op = sweep_pass(ledger, cfg, jobs, deadline, reference, spans=spans)
        result["traced_wall_s"] = op["wall_s"]
        result["span_files"] = [spans]
        result["jobs"] = jobs
    return result


def run_shots(cfg: dict, ledger: Ledger, trace_dir: Path | None):
    D20_FILE.write_text(json.dumps(D20) + "\n")
    passes = repeat(cfg["seconds"], cfg["start"],
                    lambda: shots_pass(ledger, cfg, cfg["deadline"]))
    good = [ops for ops in passes if all(op["ok"] for op in ops)]
    kinds = defaultdict(list)
    for ops in good:
        per_kind = defaultdict(float)
        for op in ops:
            per_kind[op["kind"]] += op["wall_s"]
        for kind, s in per_kind.items():
            kinds[f"{kind}_s"].append(s)
    walls = [sum(op["wall_s"] for op in ops) for ops in good]
    result = {
        "wall_s": walls,
        "checks_per_s": [sum(op["verdicts"] for op in ops) / w
                         for ops, w in zip(good, walls)],
        "rss_mb": [op["rss_mb"] for ops in good for op in ops],
        "kinds_s": {k: statistics.median(v) for k, v in kinds.items()},
    }
    if trace_dir is not None:
        ops = shots_pass(ledger, cfg, cfg["deadline"], spans_dir=trace_dir)
        result["traced_wall_s"] = sum(op["wall_s"] for op in ops)
        result["span_files"] = sorted(trace_dir.glob("*.jsonl"))
        result["jobs"] = 1
    return result


# -- environment and report --------------------------------------------------------


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _version(pkg: str) -> str | None:
    try:
        return version(pkg)
    except PackageNotFoundError:
        return None


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "click": _version("click"),
        "env": {v: os.environ.get(v) for v in ENV_VARS},
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup: list[float], res: dict, ledger: Ledger,
               elapsed: float) -> dict:
    # With no successful pass nothing is timed; the run's whole measuring
    # time stands in so that failing never reads as fast.
    walls = res["wall_s"] or [elapsed]
    return {
        "setup_s": metric(statistics.median(setup or [elapsed]), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "checks_per_s": metric(
            statistics.median(res["checks_per_s"] or [0.0]), "1/s"),
        "peak_rss_mb": metric(max(res["rss_mb"] or [0.0]), "MB"),
        "ok_share": metric(1 - ledger.failed / ledger.attempted, "share"),
    }


def per_layer(res: dict, layers: dict) -> dict:
    units = {"_s": "s", "calls": "count", "share": "share"}
    out = {}
    for name, value in layers["table"].items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        out[name] = metric(value, unit)
    traced = res["traced_wall_s"]
    untraced = statistics.median(res["wall_s"] or [traced])
    out["trace.wall_s"] = metric(traced, "s")
    out["trace.overhead_s"] = metric(traced - untraced, "s")
    # share of the traced pass's thread-seconds spent inside named functions
    out["trace.named_share"] = metric(
        layers["named_self_s"] / (traced * layers["jobs"]), "share")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="projrep benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "sweep_par", "shots"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--full", action="store_true",
                    help="sweep the whole catalog instead of SWEEP_GROUPS "
                         "(one pass; for comparison with the ROADMAP "
                         "baseline)")
    args = ap.parse_args(argv)

    if not (SRC / "projrep" / "__init__.py").is_file():
        print(f"error: no projrep sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    budget = BUDGET_S * (4 if args.full else 1)
    cfg = {
        "seed": args.seed,
        "seconds": 0 if args.full else args.seconds,
        "groups": ["all"] if args.full else SWEEP_GROUPS,
        "expected": FULL_EXPECTED if args.full else SWEEP_EXPECTED,
        "start": start,
        "deadline": start + budget,
    }
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-" \
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    trace_dir = None
    if args.trace:
        trace_dir = OUT / f"{stamp}-spans"
        trace_dir.mkdir()

    ledger = Ledger()
    setup = setup_catalog(ledger, cfg["deadline"])
    if args.workload == "shots":
        res = run_shots(cfg, ledger, trace_dir)
    else:
        jobs = max(2, nproc()) if args.workload == "sweep_par" else 1
        res = run_sweep(cfg, ledger, jobs, trace_dir)
    elapsed = time.monotonic() - start

    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "full": args.full,
              "environment": environment(args.seed), "setup_s": setup,
              "operations": ledger.ops,
              "result": {k: v for k, v in res.items() if k != "span_files"}}
    if args.trace:
        layers = summarize(res["span_files"], res["jobs"])
        metrics = per_layer(res, layers)
        record["layers"] = layers
        (OUT / f"{stamp}-layers.json").write_text(
            json.dumps({"environment": record["environment"],
                        "metrics": metrics, **layers}, indent=1) + "\n")
    else:
        metrics = end_to_end(setup, res, ledger, elapsed)
    record["metrics"] = metrics
    (OUT / f"{stamp}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    for op in ledger.ops:
        if not op["ok"]:
            print(f"FAILED {op['kind']} {op.get('args', '')}: "
                  f"{'; '.join(op['problems'])}")
    for kind, s in sorted(res.get("kinds_s", {}).items()):
        print(f"{kind} {s:.3f}")
    if res.get("sha256"):
        print(f"results.jsonl sha256 {' '.join(res['sha256'])}")
    print(f"record {(OUT / f'{stamp}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
