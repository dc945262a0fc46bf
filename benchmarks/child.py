"""One fresh interpreter's share of a qsd benchmark run.

run.py starts this script with the program's `src` on PYTHONPATH and BLAS
pinned to one thread.  It drives qsd only through `qsd.cli.main` and prints
one JSON object as the last line of its standard output:

    python3 child.py setup                      time `import qsd.cli`
    python3 child.py verify [--trace]           one `qsd verify all`
    python3 child.py sweep [--trace] [--gram-seed N]
                                                the 15 curves on 0:4:301
    python3 child.py requests --seed N --seconds S [--trace]
                                                closed loop of short curves

A unit of work is one verify, one sweep or one pass over the request list.
Each returned sample is one untraced unit: per CLI call, its wall time, CPU
time, points answered (verify checks or curve rows) and whether it was
answered. run.py takes each call's best time over the units. Outputs are
checked after the timed region. `ops` maps every operation to None when it
was answered right, or to [kind, reason]. The kind is "error" only for the
one expected refusal, a `CapacityError` from a curve_requests request or
from the Gram route; every other exception, non-zero exit, missing or wrong
answer is "wrong", and makes the run incorrect.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import workloads as wl


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def call_main(main, argv: list[str], expected: tuple = ()
              ) -> tuple[float, float, str, list | None]:
    """(wall s, CPU s, stdout text, failure or None) of one in-process CLI call.

    A failure is [kind, reason]: "error" when the call raised one of the
    `expected` exception types, else "wrong".
    """
    out, err = io.StringIO(), io.StringIO()
    failure = None
    cpu0, start = process_time(), perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        if code != 0:
            failure = ["wrong", f"exit {code}: {err.getvalue().strip()[-200:]}"]
    except SystemExit as exc:  # argparse rejects its input this way
        failure = ["wrong", f"exit {exc.code}: {err.getvalue().strip()[-200:]}"]
    except Exception as exc:
        kind = "error" if isinstance(exc, expected) else "wrong"
        failure = [kind, f"{type(exc).__name__}: {exc}"]
    return perf_counter() - start, process_time() - cpu0, out.getvalue(), failure


def env_record() -> dict:
    import numpy as np

    record = {"python": sys.version.split()[0], "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        record["blas"] = "unknown"
    return record


class Unit:
    """Runs units of work, traced or not, and keeps what run.py needs."""

    def __init__(self, trace: bool, spans_path: str | None, expected: tuple = ()):
        from qsd import cli

        self.main = cli.main
        self.expected = expected  # exception types that fail a call, not the run
        self.tracer = None
        if trace:
            from spans import Tracer

            self.tracer = Tracer()
            self.traced_main = self.tracer.wrap("cli.main", cli.main)
        self.spans_path = spans_path
        self.samples: list[dict] = []  # untraced units, per call
        self.traced: list[dict] = []
        self.out_bytes = 0

    def run(self, argvs: list[list[str]], traced: bool):
        """Time one unit of work; returns [(text, failure)] per call."""
        main = self.main
        if traced:
            self.tracer.install()
            main = self.traced_main
            root0 = self.tracer.root_s
        wall0 = perf_counter()
        calls = [call_main(main, argv, self.expected) for argv in argvs]
        wall = perf_counter() - wall0
        if traced:
            self.tracer.uninstall()
            self.out_bytes += sum(len(text) for _w, _c, text, _f in calls)
            self.traced.append({"wall_s": wall,
                                "outside_s": wall - (self.tracer.root_s - root0)})
        else:
            self.samples.append({
                "wall_s": [w for w, _c, _t, _f in calls],
                "cpu_s": [c for _w, c, _t, _f in calls],
                # all lines but one: the CSV header, or verify's summary line
                "points": [max(t.count("\n") - 1, 0) if f is None else 0
                           for _w, _c, t, f in calls],
                "answered": [f is None for _w, _c, _t, f in calls],
            })
        return [(text, failure) for _w, _c, text, failure in calls]

    def report(self, ops: dict, peak_rss_mb: float) -> dict:
        out = {"samples": self.samples, "peak_rss_mb": peak_rss_mb, "ops": ops}
        if self.traced:
            units = len(self.traced)
            layers = self.tracer.layer_values(units)
            layers["cli.out_bytes"] = self.out_bytes / units
            layers["trace.wall_s"] = sum(t["wall_s"] for t in self.traced) / units
            layers["trace.outside_s"] = sum(t["outside_s"] for t in self.traced) / units
            out["traced"] = {"units": units, "layers": layers}
            if self.spans_path:
                self.tracer.write(Path(self.spans_path))
        return out


# ---------------------------------------------------------------------------


def gram_check(points, seed: int) -> dict:
    """Re-derive a seeded sample of mixed p_corr values by the Gram route.

    `points` holds (family, |alpha|, value) candidates.  The route is
    phase_rand.decompose plus symmetric.srm_success_from_gram, independent
    of the closed forms and series behind `qsd curve`.
    """
    from qsd import phase_rand, symmetric
    from qsd.fock import CapacityError
    from qsd.symmetric import SymmetricFamilySpec

    rng = random.Random(seed)
    chosen = rng.sample(points, min(wl.GRAM_SAMPLE, len(points)))
    ops = {}
    for i, (family, alpha, value) in enumerate(chosen):
        key = f"gram/{i}/{family}/{alpha!r}"
        try:
            series = phase_rand.decompose(SymmetricFamilySpec(family, alpha))
            via_gram = sum(p * symmetric.srm_success_from_gram(g)
                           for p, g in zip(series.weights, series.per_n_gram))
        except Exception as exc:
            kind = "error" if isinstance(exc, CapacityError) else "wrong"
            ops[key] = [kind, f"{type(exc).__name__}: {exc}"]
            continue
        error = abs(via_gram - value)
        ops[key] = None if error <= wl.GRAM_TOL else [
            "wrong", f"curve {value!r} vs Gram route {via_gram!r}"]
    return ops


def do_verify(unit: Unit, traced: bool) -> dict:
    (text, failure), = unit.run([["verify", "all"]], traced)
    rss = _peak_rss_mb()
    status = wl.check_verify_output(text)
    ops = {}
    for check_id, reason in status.items():
        if reason == wl.MISSING and failure is not None:
            reason = f"{reason} ({failure[1]})"
        ops[f"verify/{check_id}"] = None if reason is None else ["wrong", reason]
    return unit.report(ops, rss)


def do_sweep(unit: Unit, traced: bool, gram_seed: int | None) -> dict:
    import numpy as np

    results = unit.run([wl.sweep_argv(m, f) for m, f in wl.CURVE_PAIRS], traced)
    rss = _peak_rss_mb()
    reference = wl.load_sweep_reference()
    lo, hi, steps = wl.SWEEP_GRID.split(":")
    grid = np.linspace(float(lo), float(hi), int(steps))
    ops, candidates = {}, []
    for (metric, family), (text, failure) in zip(wl.CURVE_PAIRS, results):
        key = f"sweep/{metric}/{family}"
        if failure is not None:
            ops[key] = failure  # always "wrong": no sweep call may fail
            continue
        wrong = wl.check_against_reference(text, reference[(metric, family)])
        ops[key] = None if wrong is None else ["wrong", wrong]
        header, rows = wl.parse_csv(text)
        candidates += [(f, float(grid[i]), v)
                       for f, i, v in wl.mixed_pcorr_points(metric, family, header, rows)]
    if gram_seed is not None:
        ops.update(gram_check(candidates, gram_seed))
    return unit.report(ops, rss)


def do_requests(unit: Unit, seed: int, seconds: float) -> dict:
    import numpy as np

    requests = wl.make_requests(seed)
    argvs = [r.argv for r in requests]
    # untimed warm-up on fixed inputs: first-call caches and lazy imports
    for metric, family in wl.CURVE_PAIRS:
        call_main(unit.main, ["curve", "--family", family, "--metric", metric,
                              "--alpha", "0:1:2"])
    deadline = perf_counter() + seconds
    first = None
    ops = {}
    while perf_counter() < deadline or len(unit.samples) + len(unit.traced) < (
        2 if unit.tracer else 1
    ):
        traced = unit.tracer is not None and len(unit.samples) > len(unit.traced)
        results = unit.run(argvs, traced)
        if first is None:
            first = results
            continue
        for i, (answer0, answer) in enumerate(zip(first, results)):
            if answer != answer0 and ops.get(f"req/{i}") is None:
                ops[f"req/{i}"] = ["wrong", "output differs between passes"]
    rss = _peak_rss_mb()
    candidates = []
    for i, (request, (text, failure)) in enumerate(zip(requests, first)):
        key = f"req/{i}"
        if failure is not None:
            ops[key] = failure  # "error" only for CapacityError
            continue
        if ops.get(key) is None:
            reason = wl.check_request(request, text)
            ops[key] = None if reason is None else ["wrong", reason]
        if ops[key] is None:
            header, rows = wl.parse_csv(text)
            grid = np.linspace(float(request.lo), float(request.hi), request.steps)
            candidates += [(f, float(grid[j]), v) for f, j, v in wl.mixed_pcorr_points(
                request.metric, request.family, header, rows, request.prior)]
    ops.update(gram_check(candidates, seed))
    return unit.report(ops, rss)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "verify", "sweep", "requests"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write spans here (gzip JSON lines)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--gram-seed", type=int, default=None)
    parser.add_argument("--env", action="store_true", help="also report versions")
    args = parser.parse_args(argv)

    if args.mode == "setup":
        start = perf_counter()
        import qsd.cli

        result = {"import_s": perf_counter() - start, "qsd_file": qsd.cli.__file__}
        if args.env:
            result["env"] = env_record()
    else:
        if args.mode == "verify":
            result = do_verify(Unit(args.trace, args.spans), args.trace)
        elif args.mode == "sweep":
            result = do_sweep(Unit(args.trace, args.spans), args.trace, args.gram_seed)
        else:
            from qsd.fock import CapacityError

            # the 150-photon cap refuses part of the stream: counted, not wrong
            unit = Unit(args.trace, args.spans, expected=(CapacityError,))
            result = do_requests(unit, args.seed, args.seconds)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
