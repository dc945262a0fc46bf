"""Inputs and output checks of the three qsd benchmark workloads.

Pure Python with no third-party imports, so the harness process can use it
without loading the program or numpy.  The inputs are fixed here rather than
read from the program, so a change to the program's own tables cannot change
what the benchmark measures.
"""

from __future__ import annotations

import lzma
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify_all", "curve_sweep", "curve_requests")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
VERIFY_REFERENCE = REFERENCE_DIR / "verify_checks.txt"
SWEEP_REFERENCE = REFERENCE_DIR / "curve_sweep.csv.xz"

#: Every (metric, family) pair `qsd curve` accepts.
CURVE_PAIRS = (
    ("p_corr", "two_mode"),
    ("p_corr", "three_mode"),
    ("p_corr", "four_mode"),
    ("p_corr", "phase_encoded"),
    ("p_unambiguous", "four_mode"),
    ("p_1bit", "three_mode"),
    ("p_1bit", "four_mode"),
    ("p_1bit", "phase_encoded"),
    ("b_ot", "three_mode"),
    ("b_ot", "four_mode"),
    ("b_ot", "phase_encoded"),
    ("delta_p_corr", "two_mode"),
    ("delta_p_corr", "three_mode"),
    ("delta_p_corr", "four_mode"),
    ("delta_p_corr", "phase_encoded"),
)

#: Metrics whose columns follow --variants.
VARIANT_METRICS = ("p_corr", "p_1bit", "b_ot")

#: curve_sweep grid: the README's documented |alpha| range, 301 points.  A
#: sweep then takes about 0.3 s, so a run times every call some 50 times.
SWEEP_GRID = "0:4:301"

#: curve_requests: requests per pass.  About 1,070 of them are answered, so
#: p99 has 10 samples beyond it.  A pass takes about 2 s, so a run times
#: every request some 15 times.
REQUESTS_PER_PASS = 1300
#: Upper end of the drawn |alpha| range; beyond the 150-photon cap on purpose.
ALPHA_MAX = 8.0
MAX_STEPS = 21

#: Mixed p_corr points re-derived per run by the Gram route.  Four-mode
#: points are left out: the route enumerates 4-mode Fock subspaces, whose
#: size grows as N^3, and the four-mode mixed value is a closed form.
GRAM_SAMPLE = 16
GRAM_FAMILIES = ("two_mode", "three_mode", "phase_encoded")
#: Tolerance of verify's own series-vs-Gram check.
GRAM_TOL = 1e-10

#: Values may sit this far outside their probability range (rounding).
RANGE_SLACK = 1e-12


def sweep_argv(metric: str, family: str) -> list[str]:
    return ["curve", "--family", family, "--metric", metric, "--alpha", SWEEP_GRID]


@dataclass(frozen=True)
class Request:
    """One `qsd curve` call of the curve_requests stream."""

    metric: str
    family: str
    lo: str
    hi: str
    steps: int
    variants: tuple[str, ...] = ("pure", "mixed")
    prior: str | None = None

    @property
    def argv(self) -> list[str]:
        argv = ["curve", "--family", self.family, "--metric", self.metric,
                "--alpha", f"{self.lo}:{self.hi}:{self.steps}"]
        if self.variants != ("pure", "mixed"):
            argv += ["--variants", ",".join(self.variants)]
        if self.prior is not None:
            argv += ["--prior", self.prior]
        return argv

    def alphas(self) -> list[float]:
        lo, hi = float(self.lo), float(self.hi)
        return [lo + (hi - lo) * i / (self.steps - 1) for i in range(self.steps)]


def _spread(j: int, multiplier: float) -> float:
    """Point j of a Weyl sequence on [0, 1): evenly spread for any count."""
    return ((j + 0.5) * multiplier) % 1.0


def make_requests(seed: int, count: int = REQUESTS_PER_PASS) -> list[Request]:
    """The seeded request stream: short grids, |alpha| up to ALPHA_MAX.

    Pairs come in shuffled rounds of all 15.  The n requests of a pair take
    the n equal strata of the upper |alpha|, one each, in shuffled order,
    with a seeded point inside the stratum.  Everything else a request's
    cost or failure depends on follows from its stratum j in a fixed
    pattern: the step count and the lower end spread evenly over j, the
    variant choice and the two_mode prior repeat every 20 and 10 strata.
    The seed changes every request and their order, but the cost
    distribution, its p99 included, and the failure share stay nearly the
    same from seed to seed.
    """
    rng = random.Random(seed)
    order: list[int] = []
    while len(order) < count:
        round_ = list(range(len(CURVE_PAIRS)))
        rng.shuffle(round_)
        order += round_
    order = order[:count]
    sizes = {k: order.count(k) for k in sorted(set(order))}
    strata = {}
    for k, n in sizes.items():
        strata[k] = list(range(n))
        rng.shuffle(strata[k])
    requests = []
    for k in order:
        metric, family = CURVE_PAIRS[k]
        j = strata[k].pop()
        hi = 0.05 + (ALPHA_MAX - 0.05) * (j + rng.random()) / sizes[k]
        steps = 2 + int(_spread(j, 0.6180339887) * (MAX_STEPS - 1))
        u_lo = _spread(j, 0.4142135624)
        lo = 0.0 if u_lo < 0.5 else (2.0 * u_lo - 1.0) * 0.9 * hi
        variants = ("pure", "mixed")
        if metric in VARIANT_METRICS and j % 20 < 6:  # 15% each of pure, mixed
            variants = ("pure",) if j % 20 < 3 else ("mixed",)
        prior = None
        if family == "two_mode" and j % 10 in (1, 4, 8):  # 30%
            prior = f"{rng.uniform(0.05, 0.95):.3f}"
        requests.append(Request(metric, family, f"{lo:.3f}", f"{hi:.3f}",
                                steps, variants, prior))
    return requests


# ---------------------------------------------------------------------------
# output checks; each returns None when the output is right, else a reason


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    return header, [[float(v) for v in line.split(",")] for line in lines[1:]]


def curve_header(metric: str, variants: tuple[str, ...]) -> list[str]:
    if metric in ("p_unambiguous", "delta_p_corr"):
        return ["alpha_abs", metric]
    if metric == "b_ot":
        return ["alpha_abs"] + [f"{m}_{v}" for v in variants for m in ("p_1bit", "b_ot")]
    return ["alpha_abs"] + [f"{metric}_{v}" for v in variants]


def _column_range(column: str, family: str, prior: str | None) -> tuple[float, float]:
    """[guessing level, 1] for a probability column; [0, 1] for the gap."""
    if column.startswith("p_corr"):
        if family == "two_mode":
            p = 0.5 if prior is None else float(prior)
            return max(p, 1.0 - p), 1.0
        return 0.25, 1.0
    if column.startswith("p_1bit"):
        return 0.5, 1.0
    if column.startswith("b_ot"):
        return 0.25, 1.0
    return 0.0, 1.0


def check_request(request: Request, text: str) -> str | None:
    """Right header and row count, the requested grid, finite in-range values."""
    try:
        header, rows = parse_csv(text)
    except ValueError as exc:
        return f"unparsable CSV: {exc}"
    expected = curve_header(request.metric, request.variants)
    if header != expected:
        return f"header {header} != {expected}"
    if len(rows) != request.steps:
        return f"{len(rows)} rows for {request.steps} grid points"
    ranges = [_column_range(c, request.family, request.prior) for c in header[1:]]
    for alpha, row in zip(request.alphas(), rows):
        if len(row) != len(header):
            return f"row {row} has {len(row)} columns"
        if not math.isclose(row[0], alpha, rel_tol=1e-11, abs_tol=1e-14):
            return f"grid point {row[0]!r} != {alpha!r}"
        for value, (low, high) in zip(row[1:], ranges):
            if not low - RANGE_SLACK <= value <= high + RANGE_SLACK:
                return f"value {value!r} at |alpha|={row[0]} outside [{low}, {high}]"
    return None


def same_to_12_digits(value: float, reference: float) -> bool:
    """Equal to 12 significant digits, give or take one in the last digit."""
    if reference == 0.0 or not math.isfinite(reference):
        return value == reference
    unit = 10.0 ** (math.floor(math.log10(abs(reference))) - 11)
    return abs(value - reference) <= unit * 1.001  # 1.001: rounding of the difference


def check_against_reference(text: str, reference: str) -> str | None:
    if text == reference:
        return None
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return f"shape {header} x {len(rows)} != reference {ref_header} x {len(ref_rows)}"
    for row, ref_row in zip(rows, ref_rows):
        for value, ref in zip(row, ref_row):
            if not same_to_12_digits(value, ref):
                return f"{value!r} != reference {ref!r} at |alpha|={ref_row[0]}"
    return None


def load_sweep_reference() -> dict[tuple[str, str], str]:
    """Reference CSV text per (metric, family), as written by make_reference.py."""
    sections = lzma.decompress(SWEEP_REFERENCE.read_bytes()).decode().split("## ")
    out = {}
    for section in sections[1:]:
        title, _, body = section.partition("\n")
        metric, family = title.split()
        out[(metric, family)] = body
    return out


def dump_sweep_reference(texts: dict[tuple[str, str], str]) -> bytes:
    body = "".join(f"## {m} {f}\n{texts[(m, f)]}" for m, f in CURVE_PAIRS)
    return lzma.compress(body.encode(), preset=9)


def verify_reference_ids() -> list[str]:
    return VERIFY_REFERENCE.read_text().split()


MISSING = "missing from the output"


def check_verify_output(text: str) -> dict[str, str | None]:
    """Per check id: None when it passed, else why not.

    Every reference check must be listed as PASS; a check the program adds
    later counts as one more operation and must pass too.
    """
    status: dict[str, str | None] = dict.fromkeys(verify_reference_ids(), MISSING)
    for line in text.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[0] in ("PASS", "FAIL"):
            status[fields[1]] = None if fields[0] == "PASS" else f"FAIL {fields[2]}"
    return status


def mixed_pcorr_points(metric: str, family: str, header: list[str],
                       rows: list[list[float]], prior: str | None = None):
    """(family, row index, value) of every mixed p_corr value in one output."""
    if metric != "p_corr" or family not in GRAM_FAMILIES or prior is not None:
        return []
    if "p_corr_mixed" not in header:
        return []
    col = header.index("p_corr_mixed")
    return [(family, i, row[col]) for i, row in enumerate(rows)]
