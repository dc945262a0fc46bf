"""Command-line front end: curve CSVs, verification runs, circuit queries.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
errors.  All numeric output is a pure function of the flags, so files are
reproducible bit for bit: no environment variable changes a number.
"""

from __future__ import annotations

import argparse
import cmath
import io
import math
import sys
from dataclasses import dataclass
from typing import NoReturn, Sequence, TextIO

import numpy as np

from . import discrimination as disc
from . import optics, verify
from .phase_rand import DEFAULT_TAIL_TOL, check_tail_tol
from .symmetric import SymmetricFamilySpec

class UsageError(Exception):
    """Invalid flag combination; reported on stderr with exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own rejections as UsageError, so they are one line
    too; subparsers are built from the same class."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


CURVE_METRICS = {
    "p_corr": disc.COHERENT_FAMILIES,
    "p_unambiguous": ("four_mode",),
    "p_1bit": disc.FOUR_STATE_FAMILIES,
    "b_ot": disc.FOUR_STATE_FAMILIES,
    "delta_p_corr": disc.COHERENT_FAMILIES,
}

#: Metrics with value columns per variant; each other metric has one column
#: and takes no variant list.
VARIANT_METRICS = ("p_corr", "p_1bit", "b_ot")


#: Most |alpha| grid points one curve may have.  A million points of the
#: slowest curve (phase_encoded b_ot) take about 7 s and 0.42 GB on a 2-vCPU
#: VM; far larger grids would fail allocating gigabytes.
MAX_GRID_STEPS = 1_000_000


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, steps_s = text.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid {text!r} is not of the form min:max:steps"
        ) from None
    if not (0 <= lo < hi < math.inf) or steps < 2:  # also rejects nan
        raise argparse.ArgumentTypeError(
            f"grid {text!r} needs finite 0 <= min < max and steps >= 2"
        )
    if steps > MAX_GRID_STEPS:
        raise UsageError(f"grid {text!r} has more than {MAX_GRID_STEPS} steps")
    return np.linspace(lo, hi, steps)


def _parse_variants(text: str) -> tuple[str, ...]:
    """Split a comma list; `CurveRequest` checks the names."""
    return tuple(v.strip() for v in text.split(",") if v.strip())


#: Every number written: 12 significant digits.
VALUE_FORMAT = "{:.12g}"


def _fmt(value: float) -> str:
    return VALUE_FORMAT.format(value)


@dataclass(frozen=True)
class CurveRequest:
    """One curve job: family, metric, variants and the |alpha| grid."""

    family: str
    metric: str
    alphas: np.ndarray
    variants: tuple[str, ...] = disc.VARIANTS
    prior: float = 0.5
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self) -> None:
        if self.metric not in CURVE_METRICS:
            raise UsageError(f"unknown metric {self.metric!r}")
        if self.family not in CURVE_METRICS[self.metric]:
            raise UsageError(
                f"metric {self.metric!r} is not defined for family {self.family!r}"
            )
        alphas = np.asarray(self.alphas, dtype=float)
        object.__setattr__(self, "alphas", alphas)
        if alphas.size > MAX_GRID_STEPS:
            raise UsageError(f"alpha grid has more than {MAX_GRID_STEPS} steps")
        if (
            alphas.ndim != 1
            or alphas.size < 2
            or not (np.isfinite(alphas) & (alphas >= 0)).all()
            or alphas[-1] <= alphas[0]
        ):
            raise UsageError(
                "alpha grid needs finite entries >= 0, first < last and steps >= 2"
            )
        if self.metric not in VARIANT_METRICS and self.variants != disc.VARIANTS:
            raise UsageError(f"metric {self.metric!r} has one column and takes no variants")
        if not self.variants:
            raise UsageError("empty variant list")
        for v in self.variants:
            if v not in disc.VARIANTS:
                raise UsageError(f"unknown variant {v!r}")
        if len(set(self.variants)) < len(self.variants):
            raise UsageError(f"repeated variant in {','.join(self.variants)}")
        if not 0.0 < self.prior < 1.0:
            raise UsageError(f"prior {self.prior} outside (0, 1)")
        if self.prior != 0.5 and self.family != "two_mode":
            raise UsageError("a prior applies to the two_mode family only")
        try:
            check_tail_tol(self.tail_tol, "tail tolerance")
        except ValueError as exc:
            raise UsageError(str(exc)) from None


def _curve_columns(request: CurveRequest) -> list[tuple[str, np.ndarray]]:
    """The (header, values) columns of a curve, each computed over the whole
    grid at once."""
    family, metric = request.family, request.metric
    alphas, prior, tail_tol = request.alphas, request.prior, request.tail_tol
    if metric not in VARIANT_METRICS:
        if metric == "p_unambiguous":
            return [(metric, disc.four_mode_unambiguous(alphas))]
        return [(metric, disc.delta_pcorr(family, alphas, prior=prior, tail_tol=tail_tol))]
    columns = []
    for v in request.variants:
        if metric == "p_corr":
            values = disc.family_pcorr(family, v, alphas, prior=prior, tail_tol=tail_tol)
            columns.append((f"p_corr_{v}", values))
        else:
            columns.append((f"p_1bit_{v}", disc.family_p1bit(family, v, alphas, tail_tol)))
        if metric == "b_ot":
            columns.append((f"b_ot_{v}", disc.family_bot(family, v, alphas, tail_tol)))
    return columns


def cmd_curve(request: CurveRequest, out: TextIO) -> int:
    named = _curve_columns(request)
    columns = [request.alphas] + [values for _name, values in named]
    row_format = ",".join([VALUE_FORMAT] * len(columns))
    lines = [",".join(["alpha_abs"] + [name for name, _values in named])]
    lines += [row_format.format(*row) for row in zip(*(c.tolist() for c in columns))]
    out.write("\n".join(lines) + "\n")
    return 0


def _curve_request(args: argparse.Namespace) -> CurveRequest:
    if args.prior is not None and args.family != "two_mode":
        raise UsageError("--prior applies to the two_mode family only")
    if args.variants is not None and args.metric not in VARIANT_METRICS:
        raise UsageError(f"--variants applies to metrics {', '.join(VARIANT_METRICS)} only")
    return CurveRequest(
        family=args.family,
        metric=args.metric,
        alphas=args.alpha,
        variants=disc.VARIANTS if args.variants is None else args.variants,
        prior=0.5 if args.prior is None else args.prior,
        tail_tol=args.tail_tol,
    )


def cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    results = verify.run_suite(args.suite)
    for result in results:
        print(result.line(), file=out)
    failed = sum(not r.passed for r in results)
    print(f"# {len(results) - failed}/{len(results)} checks passed", file=out)
    return 1 if failed else 0


def cmd_circuit(args: argparse.Namespace, out: TextIO) -> int:
    circuit = optics.preset(args.preset)
    family = optics.PRESET_FAMILIES[args.preset]
    if not 0.0 <= args.alpha < math.inf:  # also rejects nan
        raise UsageError(f"--alpha {args.alpha} is not a finite number >= 0")
    if args.amplitudes is not None:
        try:
            amps = [complex(a) for a in args.amplitudes.split(",")]
        except ValueError:
            raise UsageError(f"bad amplitude list {args.amplitudes!r}")
        if not all(cmath.isfinite(a) for a in amps):
            raise UsageError(f"non-finite amplitude in {args.amplitudes!r}")
        if len(amps) != circuit.modes:
            raise UsageError(f"{args.preset} needs {circuit.modes} amplitudes")
    else:
        spec = SymmetricFamilySpec(family, args.alpha)
        labels = spec.family.labels
        if args.state not in labels:
            raise UsageError(f"state {args.state!r} not in {labels}")
        amps = list(spec.amplitude_vectors()[labels.index(args.state)])
    stats = optics.click_statistics(circuit, amps)
    for name, p in stats.click_probability:
        label = circuit.identify.get(name, "?")
        print(f"{name} (identifies {label}): {_fmt(p)}", file=out)
    print(f"no_click: {_fmt(stats.no_click_probability)}", file=out)
    identified = stats.identified_label()
    print(f"identified: {identified if identified is not None else 'none'}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsd",
        description=(
            "Discrimination probabilities for symmetric multi-mode coherent-state "
            "families, with built-in numerical verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="write probability curves as CSV")
    curve.add_argument("--family", required=True, choices=disc.COHERENT_FAMILIES)
    curve.add_argument("--metric", required=True, choices=sorted(CURVE_METRICS))
    curve.add_argument(
        "--variants",
        type=_parse_variants,
        default=None,
        help="comma list among pure,mixed (default both); p_corr, p_1bit and b_ot only",
    )
    curve.add_argument(
        "--alpha",
        required=True,
        type=_parse_grid,
        help="grid as min:max:steps, endpoints included",
    )
    curve.add_argument("--prior", type=float, default=None,
                       help="smaller prior for the two_mode family (default 1/2)")
    curve.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL,
                       help=f"Poisson tail tolerance for series (default {DEFAULT_TAIL_TOL:g})")
    curve.add_argument("--output", "-o", default=None, help="CSV path (default stdout)")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=("all",) + verify.SUITE_NAMES,
    )

    circ = sub.add_parser("circuit", help="click statistics of a preset circuit")
    circ.add_argument("preset", choices=sorted(optics.PRESET_FAMILIES))
    group = circ.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="family label, e.g. 00 or 1")
    group.add_argument("--amplitudes", help="comma list of complex mode amplitudes")
    circ.add_argument("--alpha", type=float, default=1.0,
                      help="|alpha| used with --state (default 1)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return cmd_verify(args, sys.stdout)
        if args.command == "curve":
            request = _curve_request(args)
            if args.output is None:
                return cmd_curve(request, sys.stdout)
            text = io.StringIO()  # rows first: a failing request leaves the file alone
            cmd_curve(request, text)
            try:
                with open(args.output, "w") as handle:
                    handle.write(text.getvalue())
            except OSError as exc:
                raise UsageError(f"cannot write {args.output}: {exc.strerror}")
            return 0
        return cmd_circuit(args, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
