"""Verify a fixed list of catalog groups in one process.

    python3 perfbench/sweep.py --jobs N --seed S --out DIR GROUP... | all

This is what ``projrep verify all`` does, through the same ``RunConfig`` and
``run``, but over a chosen part of the catalog (``all`` is the whole
catalog).  It writes ``results.jsonl`` and ``summary.csv`` under DIR, prints
the verdict counts in the form ``projrep verify`` uses and exits with the
status ``run`` returns.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("groups", nargs="+")
    args = ap.parse_args(argv)

    from projrep.workbench import RunConfig, run

    status, results = run(RunConfig(groups=args.groups, seed=args.seed,
                                    jobs=args.jobs, out=args.out))
    counts = Counter(r.verdict for r in results)
    print(f"# pass={counts['pass']} fail={counts['fail']} "
          f"inapplicable={counts['inapplicable']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
