"""Record reference.json: the pivot-independent outputs of every pool op.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are trusted, and only when the
benchmark's pools change; a change to the program must never re-record.
Ops run in the canonical presentation (pool order, no shuffling).
"""

from __future__ import annotations

import json

import run
import workloads


def main() -> None:
    P = run.import_program()
    reference = {"recorded_with": run.environment()}
    for name, workload in workloads.WORKLOADS.items():
        batch = workloads.set_up(P, workload, None)
        if batch.errors:
            raise SystemExit(f"{name}: {batch.errors}")
        entries = [
            {"digest": spec.digest(), "expected": []} for spec in workload.pool()
        ]
        for op in batch.ops:
            out = workload.call(P, op)
            errors = workload.invariants(P, op, out)
            if errors:
                raise SystemExit(f"{name}: {errors}")
            entries[op.problem]["expected"].append(workload.summary(op, out))
        reference[name] = entries
        print(f"{name}: {len(batch.ops)} ops recorded")
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(reference, handle, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    main()
