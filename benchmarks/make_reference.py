"""Regenerate the benchmark's reference outputs from the current program.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 benchmarks/make_reference.py

Writes reference/curve_sweep.csv.xz (the 15 curve_sweep CSVs) and
reference/verify_checks.txt (the ids of the checks `qsd verify all` runs).
Run it only when the program's outputs are meant to change, and say so in
the change that does it: the curve_sweep check compares against these files.
"""

from __future__ import annotations

import sys

import workloads as wl
from child import call_main


def main() -> int:
    from qsd import cli

    texts = {}
    for metric, family in wl.CURVE_PAIRS:
        _w, _c, text, error = call_main(cli.main, wl.sweep_argv(metric, family))
        if error is not None:
            print(f"{metric} {family}: {error}", file=sys.stderr)
            return 1
        texts[(metric, family)] = text
    _w, _c, text, error = call_main(cli.main, ["verify", "all"])
    if error is not None:
        print(f"verify all: {error}", file=sys.stderr)
        return 1
    ids = [line.split()[1] for line in text.splitlines() if line.startswith("PASS")]
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    wl.SWEEP_REFERENCE.write_bytes(wl.dump_sweep_reference(texts))
    wl.VERIFY_REFERENCE.write_text("\n".join(ids) + "\n")
    print(f"wrote {len(texts)} curves and {len(ids)} check ids to {wl.REFERENCE_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
