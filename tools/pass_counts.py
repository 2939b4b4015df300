"""Count the work of one fresh and one warm pass over a perfbench workload.

    python tools/pass_counts.py --workload W --seed S [--src SOURCE_DIR]

The batch is set up as `perfbench/run.py` sets it up (`workloads.set_up`:
each problem written as a document and parsed back, presented under the
seed), so the LPs posed while loading are not counted.  Then the ops run
once on the freshly parsed problems (the fresh pass) and once more on the
same problem objects (the warm pass), which read whatever the first pass
left on the problems.  Per pass it counts the calls of

* `lp_solve`, under every alias any polydc module holds, rebound from
  outside as `perfbench/spans.py` rebinds it;
* `exactlp._Rows.start` (`lps`: every LP posed) and `exactlp._prepare`
  (`prepared`: every prepared start built);
* `MaxAffine._at` and `PolyhedralSet._tight_rows` (every evaluation)
  and `model._scaled` (every point or vector scaled), under every alias;
* `dca._along` (`walk_runs`: every DCA run answered from a walk) and
  `dca._walk` (`walks_built`: every walk built), and their difference,
  `kept_walk_runs`, the runs answered from a walk kept by an earlier run;
* `exactlp._Tableau.pivot` (`pivots`, the row eliminations included),
  with the largest tableau pivoted on (`largest_tableau`: rows and the
  entries of a row before its rhs, which are the stored columns);

and the CPU seconds of the pass, counting wrappers included.  A count
of a function the source tree does not have is null.  The result
is one JSON object keyed like `counts_per_pass` in the `BENCH_*.json`
files.  SOURCE_DIR, the directory holding the `polydc` package, defaults
to src/ next to this directory; the workloads are always this checkout's
`perfbench/workloads.py`, which is imported and never written to.
Standard library only.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, qualified name, key) of every counted function
COUNTED = (
    ("exactlp", "lp_solve", "lp_solve"),
    ("exactlp", "_Rows.start", "lps"),
    ("exactlp", "_prepare", "prepared"),
    ("model", "MaxAffine._at", "MaxAffine._at"),
    ("model", "PolyhedralSet._tight_rows", "PolyhedralSet._tight_rows"),
    ("model", "_scaled", "model._scaled"),
    ("dca", "_along", "walk_runs"),
    ("dca", "_walk", "walks_built"),
    ("exactlp", "_Tableau.pivot", "pivots"),
)


def rebind(module_name: str, qualname: str, wrap) -> bool:
    """Replace a polydc function by `wrap(function)`: a method on its
    class, a function under each alias that a loaded polydc module holds.
    False when the source tree has no such function."""
    module = sys.modules[f"polydc.{module_name}"]
    if "." in qualname:
        owner, name = qualname.split(".")
        owner = getattr(module, owner)
        setattr(owner, name, wrap(owner.__dict__[name]))
        return True
    original = getattr(module, qualname, None)
    if original is None:
        return False
    wrapper = wrap(original)
    for key, m in list(sys.modules.items()):
        if key.split(".")[0] == "polydc":
            for alias, value in list(vars(m).items()):
                if value is original:
                    setattr(m, alias, wrapper)
    return True


def _counting(counts: collections.Counter, key: str):
    def wrap(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    return wrap


def _measuring(largest: list):
    """Keep in `largest` the (rows, columns) of the largest tableau that
    `_Tableau.pivot` is called on, by rows times columns."""

    def wrap(pivot):
        @functools.wraps(pivot)
        def measured(tableau, *args):
            rows = tableau.rows
            size = [len(rows), len(rows[0]) - 1]
            if size[0] * size[1] > largest[0] * largest[1]:
                largest[:] = size
            return pivot(tableau, *args)

        return measured

    return wrap


def install(counts: collections.Counter, largest: list) -> set[str]:
    """Wrap every counted function, and `_Tableau.pivot` once more to
    measure the tableaus; returns the keys of the counted functions that
    the source tree does not have."""
    missing = {
        key
        for module_name, qualname, key in COUNTED
        if not rebind(module_name, qualname, _counting(counts, key))
    }
    rebind("exactlp", "_Tableau.pivot", _measuring(largest))
    return missing


def pass_counts(workload_name: str, seed: int) -> dict:
    """The counts and CPU seconds of a fresh and then a warm pass."""
    import polydc as P
    import workloads

    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(f"error: no workload {workload_name!r}")
    workload = workloads.WORKLOADS[workload_name]
    batch = workloads.set_up(P, workload, seed)
    if batch.errors:
        raise SystemExit(f"error: set-up failed: {batch.errors[0]}")
    counts: collections.Counter = collections.Counter()
    largest = [0, 0]
    missing = install(counts, largest)
    result = {}
    for name in ("fresh", "warm"):
        counts.clear()
        largest[:] = [0, 0]
        start = time.process_time()
        for op in batch.ops:
            workload.call(P, op)
        result[f"{name}_pass_cpu_s"] = round(time.process_time() - start, 4)
        for _, _, key in COUNTED:
            result[f"{name}_pass_{key}"] = None if key in missing else counts[key]
        kept_walk_runs = counts["walk_runs"] - counts["walks_built"]
        walks = not {"walk_runs", "walks_built"} & missing
        result[f"{name}_pass_kept_walk_runs"] = kept_walk_runs if walks else None
        result[f"{name}_pass_largest_tableau"] = list(largest)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave no cache under perfbench/
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    result = pass_counts(args.workload, args.seed)
    key = f"{args.workload}/seed_{args.seed}"
    print(json.dumps({key: result}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
