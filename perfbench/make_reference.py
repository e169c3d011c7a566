"""Write reference/<workload>.json from one run of each workload.

    python3 perfbench/make_reference.py

The committed references were written by this script from the code at the
commit that added the benchmark.  Rewrite them only when a change is meant to
alter results, and say so in that change.
"""

from __future__ import annotations

import json
import time

import run


def main() -> None:
    for name in run.WORKLOADS:
        spec = run.workload_spec(name, seed=0)
        rep = run.run_worker(spec, deadline=time.monotonic() + run.RUN_LIMIT_S)
        result = rep["result"]
        if spec["kind"] == "twists":
            result["twists"].sort(key=lambda row: (row["c"], row["exponents"]))
        if rep["failed"]:
            raise SystemExit(f"{name}: {rep['failed']} operations failed; not a reference")
        path = run.HERE / "reference" / f"{name}.json"
        path.write_text(json.dumps(result, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)} ({rep['attempted']} operations)")


if __name__ == "__main__":
    main()
