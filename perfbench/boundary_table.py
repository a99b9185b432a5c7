"""Regenerate boundary_table.json: the codimension-one boundary count of
every window in the exhaustive workload's fixed pool.

    python3 perfbench/boundary_table.py

The counts come from ``geometry.codim1_boundary_count`` at the current
commit; there is no second route to them until boundary cells are built
from affine Bruhat covers.  Takes about a minute.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import workloads  # noqa: E402
from positroids import geometry  # noqa: E402
from positroids.core import BoundedAffinePermutation  # noqa: E402


def main() -> None:
    counts = {
        workloads.window_key(w): geometry.codim1_boundary_count(
            BoundedAffinePermutation.from_window(w)
        )
        for w in workloads.boundary_pool()
    }
    doc = json.dumps({"counts": counts}, indent=0)
    workloads.BOUNDARY_TABLE.write_text(doc + "\n")
    print(f"wrote {len(counts)} counts to {workloads.BOUNDARY_TABLE}")


if __name__ == "__main__":
    main()
