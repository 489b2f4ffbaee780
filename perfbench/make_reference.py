"""Rewrite reference.json: each workload's masked rows.csv on the default seed.

    python3 perfbench/make_reference.py

Run it only for a change whose rows are meant to differ, and say why.
"""

from __future__ import annotations

import json

from rep import HERE, REFERENCE, run
from checks import masked_digest, masked_rows
from workloads import DEFAULT_SEED, NAMES


def main() -> None:
    workloads = {}
    for name in NAMES:
        out_dir = HERE.parent / ".perfbench_out" / "reference" / name
        run(name, DEFAULT_SEED, traced=False, out_dir=out_dir)
        text = (out_dir / "report" / "rows.csv").read_text()
        workloads[name] = {"digest": masked_digest(text), "rows": masked_rows(text)}
        print(f"{name}: {workloads[name]['digest']}")
    document = {"seed": DEFAULT_SEED, "workloads": workloads}
    REFERENCE.write_text(json.dumps(document, indent=1) + "\n")


if __name__ == "__main__":
    main()
