"""Command-line front end: curve CSVs, verification runs, circuit queries.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
errors.  All numeric output is a pure function of the flags, so files are
reproducible bit for bit; the only environment hook is QSD_TAIL_TOL, which
overrides the default series tail tolerance.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

from . import discrimination as disc
from . import optics, verify
from .phase_rand import default_tail_tol
from .symmetric import SymmetricFamilySpec

class UsageError(Exception):
    """Invalid flag combination; reported on stderr with exit code 2."""


CURVE_METRICS = {
    "p_corr": ("two_mode", "three_mode", "four_mode", "phase_encoded"),
    "p_unambiguous": ("four_mode",),
    "p_1bit": disc.FOUR_STATE_FAMILIES,
    "b_ot": disc.FOUR_STATE_FAMILIES,
    "delta_p_corr": ("two_mode", "three_mode", "four_mode", "phase_encoded"),
}


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
    return np.linspace(lo, hi, steps)


def _parse_variants(text: str) -> tuple[str, ...]:
    variants = tuple(v.strip() for v in text.split(",") if v.strip())
    for v in variants:
        if v not in disc.VARIANTS:
            raise argparse.ArgumentTypeError(f"unknown variant {v!r}")
    if not variants:
        raise argparse.ArgumentTypeError("empty variant list")
    return variants


def _fmt(value: float) -> str:
    return f"{value:.12g}"


@dataclass(frozen=True)
class CurveRequest:
    """One curve job: family, metric, variants and the |alpha| grid."""

    family: str
    metric: str
    alphas: np.ndarray
    variants: tuple[str, ...] = ("pure", "mixed")
    prior: float = 0.5
    tail_tol: float = field(default_factory=default_tail_tol)

    def __post_init__(self) -> None:
        if self.metric not in CURVE_METRICS:
            raise UsageError(f"unknown metric {self.metric!r}")
        if self.family not in CURVE_METRICS[self.metric]:
            raise UsageError(
                f"metric {self.metric!r} is not defined for family {self.family!r}"
            )
        if len(self.alphas) < 2 or self.alphas[0] < 0 or self.alphas[-1] <= self.alphas[0]:
            raise UsageError("alpha grid needs 0 <= min < max and steps >= 2")
        if not 0.0 < self.prior < 1.0:
            raise UsageError(f"prior {self.prior} outside (0, 1)")


def _curve_row(request: CurveRequest, alpha: float) -> list[float]:
    family, metric, variants = request.family, request.metric, request.variants
    prior, tail_tol = request.prior, request.tail_tol
    if metric == "p_corr":
        return [
            disc.family_pcorr(family, v, alpha, prior=prior, tail_tol=tail_tol)
            for v in variants
        ]
    if metric == "p_unambiguous":
        return [disc.four_mode_unambiguous(alpha)]
    if metric == "p_1bit":
        return [disc.family_p1bit(family, v, alpha, tail_tol) for v in variants]
    if metric == "b_ot":
        row = []
        for v in variants:
            row.append(disc.family_p1bit(family, v, alpha, tail_tol))
            row.append(disc.family_bot(family, v, alpha, tail_tol))
        return row
    return [disc.delta_pcorr(family, alpha, prior=prior, tail_tol=tail_tol)]


def _curve_header(metric: str, variants: Sequence[str]) -> list[str]:
    if metric == "p_unambiguous":
        return ["alpha_abs", "p_unambiguous"]
    if metric == "delta_p_corr":
        return ["alpha_abs", "delta_p_corr"]
    if metric == "b_ot":
        cols = ["alpha_abs"]
        for v in variants:
            cols += [f"p_1bit_{v}", f"b_ot_{v}"]
        return cols
    return ["alpha_abs"] + [f"{metric}_{v}" for v in variants]


def cmd_curve(request: CurveRequest, out: TextIO) -> int:
    alphas = [float(alpha) for alpha in request.alphas]
    rows = [_curve_row(request, alpha) for alpha in alphas]
    print(",".join(_curve_header(request.metric, request.variants)), file=out)
    for alpha, row in zip(alphas, rows):
        print(",".join(_fmt(v) for v in [alpha] + row), file=out)
    return 0


def _curve_request(args: argparse.Namespace) -> CurveRequest:
    if args.prior is not None and args.family != "two_mode":
        raise UsageError("--prior applies to the two_mode family only")
    return CurveRequest(
        family=args.family,
        metric=args.metric,
        alphas=args.alpha,
        variants=args.variants,
        prior=0.5 if args.prior is None else args.prior,
        tail_tol=args.tail_tol,
    )


def _tail_tol(flag: float | None) -> float:
    """--tail-tol if given, else QSD_TAIL_TOL, else the default; in (0, 1)."""
    if flag is None:
        try:
            return default_tail_tol()
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if not 0.0 < flag < 1.0:  # also rejects nan and inf
        raise UsageError(f"--tail-tol {flag} is not a number in (0, 1)")
    return flag


def cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    results = verify.run_suite(args.suite, tail_tol=args.tail_tol)
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
        if args.state not in spec.labels:
            raise UsageError(f"state {args.state!r} not in {spec.labels}")
        amps = list(spec.amplitude_vectors()[spec.labels.index(args.state)])
    stats = optics.click_statistics(circuit, amps)
    for name, p in stats.click_probability:
        label = circuit.identify.get(name, "?")
        print(f"{name} (identifies {label}): {_fmt(p)}", file=out)
    print(f"no_click: {_fmt(stats.no_click_probability)}", file=out)
    identified = stats.identified_label()
    print(f"identified: {identified if identified is not None else 'none'}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        default=("pure", "mixed"),
        help="comma list among pure,mixed (default both)",
    )
    curve.add_argument(
        "--alpha",
        required=True,
        type=_parse_grid,
        help="grid as min:max:steps, endpoints included",
    )
    curve.add_argument("--prior", type=float, default=None,
                       help="smaller prior for the two_mode family (default 1/2)")
    curve.add_argument("--tail-tol", type=float, default=None,
                       help="Poisson tail tolerance for series (default 1e-12)")
    curve.add_argument("--output", "-o", default=None, help="CSV path (default stdout)")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=("all",) + verify.SUITE_NAMES,
    )
    ver.add_argument("--tail-tol", type=float, default=None)

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
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "tail_tol"):
            args.tail_tol = _tail_tol(args.tail_tol)
        if args.command == "verify":
            return cmd_verify(args, sys.stdout)
        if args.command == "curve":
            request = _curve_request(args)
            if args.output is None:
                return cmd_curve(request, sys.stdout)
            try:
                handle = open(args.output, "w")
            except OSError as exc:
                raise UsageError(f"cannot write {args.output}: {exc.strerror}")
            with handle:
                return cmd_curve(request, handle)
        return cmd_circuit(args, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
