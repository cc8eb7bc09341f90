"""Convergence experiments: exact L2 errors across budgets, rate fits, CSV/SVG.

For each evaluation budget M_max the harness selects (N, R, tau), runs the
median algorithm on a built-in test function, and computes the squared L2
error exactly from the known Fourier coefficients:

    ||f||^2 - sum_{h in A} |f_hat(h)|^2 + sum_{h in A} |c_h - f_hat(h)|^2.

Results go to a CSV with a #key=value comment header; an optional
self-contained SVG shows the log-log scatter with reference slope lines.
Also provides the parameter-selection-only table of N_star versus M over an
extended budget range.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field
from math import fsum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .korobov import (
    ProductWeights,
    SmoothnessParams,
    SpectralOracle,
    _integer,
    cosine_pair_oracle,
    test_function_f1,
    test_function_f2,
)
from .index_set import _check_cap, _parsed_rows, _read_table, _write_table
from .median_approx import MedianApproximation, run
from .params import (
    BudgetSpec,
    PolynomialDecayWeights,
    SelectedParams,
    _find_Nmax,
    check_conditions,
    select_params,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentRecord",
    "RateFit",
    "exact_squared_error",
    "run_experiment",
    "emit_csv",
    "parse_csv",
    "fit_rate",
    "figure3_table",
    "emit_figure3_csv",
    "write_svg_scatter",
    "main",
]

FIG3_EXPONENTS = tuple(range(10, 27))
DEFAULT_ALPHA = {"f1": 1.5, "f2": 2.5, "exp": 1.5}

# the fields ExperimentConfig checks, in order: name, the CLI flag that sets it,
# what its value must be, and the value to store, or None to refuse the value
_FIELD_CHECKS = (
    ("function", "--function", "one of " + ", ".join(DEFAULT_ALPHA),
     lambda v: v if v in DEFAULT_ALPHA else None),
    ("dim", "--dim", "an integer >= 1", lambda v: _integer(v, 1)),
    ("delta", "--delta", "a number in (0, 1)", lambda v: v if 0.0 < v < 1.0 else None),
    ("budgets", "--budgets", "at least one budget", lambda v: v if len(v) >= 1 else None),
    ("budgets", "--budgets", "integers >= 2",
     lambda v: None if None in (ints := tuple(_integer(b, 2) for b in v)) else ints),
    ("seed", "--seed", "an integer >= 0", lambda v: _integer(v, 0)),
    ("runs_per_budget", "--runs", "an integer >= 1", lambda v: _integer(v, 1)),
    ("workers", "--workers", "an integer >= 1", lambda v: _integer(v, 1)),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; mirrors the CLI flags.

    An unknown function, delta outside (0, 1), no budgets, a dim, budget,
    seed, runs_per_budget or workers that is not an integer (>= 2 for a
    budget, >= 0 for the seed, >= 1 otherwise), an alpha that
    SmoothnessParams refuses or gammas that give no valid weights for dim
    raises ValueError naming the field, as the CLI refuses them.
    """

    function: str = "f1"              # f1 | f2 | exp
    alpha: Optional[float] = None     # None -> per-function default
    gammas: Optional[object] = None   # list of floats, "poly:beta", or None (all ones)
    dim: int = 2
    delta: float = 0.01
    budgets: Tuple[int, ...] = tuple(2**e for e in range(10, 19))
    seed: int = 20240801
    runs_per_budget: int = 1
    out: Optional[str] = None
    workers: int = 1

    def __post_init__(self):
        for name, flag, expected, convert in _FIELD_CHECKS:
            value = getattr(self, name)
            stored = convert(value)
            if stored is None:
                raise _FieldError(f"{name}: expected {expected}, got {value!r}", flag)
            object.__setattr__(self, name, stored)
        for name, flag, check in (("alpha", "--alpha", self.problem),
                                  ("gammas", "--gamma", self.resolved_weights)):
            try:
                check()
            except ValueError as err:
                raise _FieldError(f"{name}: {err}", flag) from err

    def resolved_alpha(self) -> float:
        if self.alpha is not None:
            return float(self.alpha)
        return DEFAULT_ALPHA[self.function]

    def resolved_weights(self) -> ProductWeights:
        return _parse_gammas(self.gammas, self.dim)

    def problem(self) -> SmoothnessParams:
        return SmoothnessParams(alpha=self.resolved_alpha(), dim=self.dim)

    def oracle(self) -> SpectralOracle:
        if self.function == "f1":
            return test_function_f1(self.dim)
        if self.function == "f2":
            return test_function_f2(self.dim)
        return cosine_pair_oracle((1,) * self.dim)


class _FieldError(ValueError):
    """A value of an ExperimentConfig field that the experiment refuses,
    with the CLI ``flag`` that sets it."""

    def __init__(self, message: str, flag: str):
        super().__init__(message)
        self.flag = flag


def _parse_gammas(spec, dim: int) -> ProductWeights:
    if spec is None:
        return ProductWeights([1.0] * dim)
    if isinstance(spec, str):
        if spec.startswith("poly:"):
            return PolynomialDecayWeights(float(spec[5:])).take(dim)
        values = [float(v) for v in spec.split(",")]
    else:
        values = [float(v) for v in spec]
    if len(values) < dim:
        raise ValueError(f"need {dim} weights, got {len(values)}")
    return ProductWeights(values[:dim])


@dataclass(frozen=True)
class ExperimentRecord:
    """One row of a CLI table: a budget's selection and, when the budget
    was run, that run's outcome.  A budget that was not run, infeasible or
    in the --fig 3 table, keeps index_set_size 0 and no error; wall_time
    is informational only."""

    M_max: int
    run_index: int
    N: int
    R: int
    M: int
    tau_star: float
    N_star: float
    index_set_size: int
    feasible: bool
    squared_L2_error: Optional[float]
    wall_time: Optional[float] = field(default=None, compare=False)


def exact_squared_error(f: SpectralOracle, approx: MedianApproximation) -> float:
    """Exact squared L2 error of the approximation via Parseval.

    Requires the oracle's exact norm and coefficients.  A tiny negative
    result (within 1e-12 of zero relative to the norm) is floored at 0;
    anything more negative means the oracle's norm and coefficients are
    inconsistent and raises.
    """
    truth = f.coefficients(approx.index_set.H)
    # Python's abs and **: numpy's differ in the last bit, and the CSV has 17 digits
    truth_sq = fsum(abs(t) ** 2 for t in truth.tolist())
    resid = fsum(abs(e) ** 2 for e in (approx.coefficients.vector - truth).tolist())
    err = f.l2_norm_sq - truth_sq + resid
    tol = 1e-12 * max(1.0, f.l2_norm_sq)
    if err < -tol:
        raise ValueError(
            f"squared error {err!r} is negative beyond rounding: "
            "oracle norm and coefficients disagree"
        )
    return max(err, 0.0)


def _run_master_seed(seed: int, budget_index: int, run_index: int) -> int:
    state = np.random.SeedSequence([seed, budget_index, run_index]).generate_state(
        1, dtype=np.uint64
    )
    return int(state[0])


def _record(M_max: int, sp: SelectedParams, run_index: int = 0, index_set_size: int = 0,
            squared_L2_error: Optional[float] = None,
            wall_time: Optional[float] = None) -> ExperimentRecord:
    """The row of budget M_max, selected as ``sp``."""
    return ExperimentRecord(
        M_max=M_max, run_index=run_index, N=sp.N_max, R=sp.R, M=sp.N_max * sp.R,
        tau_star=sp.tau_star, N_star=sp.N_star, index_set_size=index_set_size,
        feasible=sp.feasible, squared_L2_error=squared_L2_error, wall_time=wall_time,
    )


def run_experiment(
    config: ExperimentConfig,
    selections: Optional[Dict[int, SelectedParams]] = None,
) -> List[ExperimentRecord]:
    """Run the full budget grid and write the CSV if an output path is set.

    Infeasible budgets (N_star < 1) still produce records, flagged
    feasible=False with an empty error field, so the emitted grid always
    matches the requested one.  A dict passed as ``selections`` receives
    each budget's parameter selection, which the CSV header reports.
    Every budget is selected before any run, and a feasible one whose index
    set would exceed the enumeration cap raises ValueError naming it.
    """
    problem = config.problem()
    weights = config.resolved_weights()
    oracle = config.oracle()
    records: List[ExperimentRecord] = []
    if selections is None:
        selections = {}
    for M_max in config.budgets:
        sp = select_params(BudgetSpec(M_max, config.delta), problem, weights)
        if sp.feasible:
            try:
                _check_cap(sp.N_star, problem, weights)
            except ValueError as err:
                raise _FieldError(f"M_max={M_max}: {err}", "--budgets") from err
        selections[M_max] = sp

    for bi, M_max in enumerate(config.budgets):
        sp = selections[M_max]
        for ri in range(config.runs_per_budget):
            if not sp.feasible:
                records.append(_record(M_max, sp, ri))
                continue
            t0 = time.perf_counter()
            ap = sp.algorithm_params(_run_master_seed(config.seed, bi, ri))
            approx = run(oracle.evaluate, ap, problem, weights, workers=config.workers)
            err = exact_squared_error(oracle, approx)
            records.append(_record(M_max, sp, ri, len(approx.index_set), err,
                                   time.perf_counter() - t0))

    if config.out:
        text = emit_csv(config, records, selections)
        with open(config.out, "w", newline="") as fh:
            fh.write(text)
    return records


# the error CSV's columns, each with the parser of its text; the --fig 3
# table writes the selection's columns but feasible
_CSV_COLUMNS = {
    "M_max": int, "run_index": int, "N": int, "R": int, "M": int, "tau_star": float,
    "N_star": float, "index_set_size": int, "feasible": lambda t: t == "true",
    "squared_L2_error": lambda t: float(t) if t else None,
}
_FIG3_COLUMNS = [c for c in _CSV_COLUMNS
                 if c not in ("run_index", "index_set_size", "feasible", "squared_L2_error")]


def _cells(record: ExperimentRecord, columns) -> list:
    """The fields of ``record`` under ``columns``: a bool as true/false and
    None as an empty field."""
    values = [getattr(record, c) for c in columns]
    return [("true" if v else "false") if isinstance(v, bool) else "" if v is None else v
            for v in values]


def _problem_header(config: ExperimentConfig) -> list:
    """The header items that both CSVs give the problem."""
    return [("alpha", config.resolved_alpha()), ("gamma", config.resolved_weights().gammas),
            ("dim", config.dim), ("delta", config.delta)]


def emit_csv(
    config: ExperimentConfig,
    records: Sequence[ExperimentRecord],
    selections: Optional[Dict[int, SelectedParams]] = None,
) -> str:
    """Serialize records with a provenance comment header, LF line endings.

    Header content depends only on the experiment definition (never on
    worker count or timing), so identical seeds give byte-identical files.
    """
    header = [("function", config.function), *_problem_header(config),
              ("seed", config.seed), ("runs_per_budget", config.runs_per_budget),
              ("budgets", config.budgets)]
    if selections:
        problem, weights = config.problem(), config.resolved_weights()
        for M_max in config.budgets:
            sp = selections.get(M_max)
            if sp is None:
                continue
            report = check_conditions(sp, problem, weights, R=sp.R, delta=config.delta)
            header += [(f"select.{M_max}", dict(sp.header_items())),
                       (f"conditions.{M_max}", dict(report.header_items()))]
    return _write_table(header, _CSV_COLUMNS, [_cells(r, _CSV_COLUMNS) for r in records])


def parse_csv(text: str) -> List[ExperimentRecord]:
    """Inverse of emit_csv (comment header ignored, wall_time not stored)."""
    try:
        _, columns, rows = _read_table(text.splitlines())
        if rows and columns != list(_CSV_COLUMNS):
            raise ValueError(f"column line {','.join(columns)!r}")
        rows = _parsed_rows(rows, _CSV_COLUMNS.values())
    except ValueError as err:
        raise ValueError(f"malformed {err}") from err
    return [ExperimentRecord(**dict(zip(_CSV_COLUMNS, values))) for values in rows]


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def fit_rate(points: Sequence[Tuple[float, float]]) -> RateFit:
    """Least-squares fit of log(err) against log(x).

    Needs at least three strictly positive points; returns the slope, the
    intercept, and the coefficient of determination of the log-log fit.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points for a rate fit")
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("rate fits require positive values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2)


# --------------------------------------------------------------------------
# figure 3: N_star versus M, parameter selection only
# --------------------------------------------------------------------------

def figure3_table(
    config: ExperimentConfig, exponents: Sequence[int] = FIG3_EXPONENTS
) -> List[ExperimentRecord]:
    """Parameter selection across an extended budget grid, no function runs:
    one row per budget 2^e, none of them run, with ``feasible`` telling
    whether it could be."""
    problem, weights = config.problem(), config.resolved_weights()
    return [_record(2**e, select_params(BudgetSpec(2**e, config.delta), problem, weights))
            for e in exponents]


def emit_figure3_csv(config: ExperimentConfig, rows: Sequence[ExperimentRecord]) -> str:
    return _write_table(_problem_header(config), _FIG3_COLUMNS,
                        [_cells(r, _FIG3_COLUMNS) for r in rows])


# --------------------------------------------------------------------------
# SVG output
# --------------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 480
_MARGIN = 60


def _svg_transform(values, lo, hi, pix_lo, pix_hi):
    logv = math.log10(values)
    frac = (logv - lo) / (hi - lo) if hi > lo else 0.5
    return pix_lo + frac * (pix_hi - pix_lo)


def write_svg_scatter(
    path: str,
    points: Sequence[Tuple[float, float]],
    xlabel: str,
    ylabel: str,
    ref_slopes: Sequence[float] = (),
) -> None:
    """Self-contained log-log scatter plot with optional reference slopes.

    Reference lines are anchored at the first data point and labeled with
    their exponent.  Output is deterministic: fixed canvas, fixed formats,
    no timestamps.
    """
    pts = [(x, y) for x, y in points if x > 0 and y > 0]
    if not pts:
        raise ValueError("no positive points to plot")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    ref_lines = []
    x0, y0 = pts[0]
    x1 = max(xs)
    for s in ref_slopes:
        y_at_end = y0 * (x1 / x0) ** s
        ref_lines.append(((x0, y0), (x1, y_at_end), s))
        ys.append(y_at_end)
    lx_lo, lx_hi = math.log10(min(xs)), math.log10(max(xs))
    ly_lo, ly_hi = math.log10(min(ys)), math.log10(max(ys))
    pad = 0.05
    lx_lo, lx_hi = lx_lo - pad, lx_hi + pad
    ly_lo, ly_hi = ly_lo - pad, ly_hi + pad

    def X(v):
        return _svg_transform(v, lx_lo, lx_hi, _MARGIN, _SVG_W - _MARGIN)

    def Y(v):
        return _svg_transform(v, ly_lo, ly_hi, _SVG_H - _MARGIN, _MARGIN)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
    ]
    # decade ticks
    for e in range(math.ceil(lx_lo), math.floor(lx_hi) + 1):
        px = X(10.0**e)
        out.append(
            f'<line x1="{px:.2f}" y1="{_SVG_H - _MARGIN}" x2="{px:.2f}" '
            f'y2="{_SVG_H - _MARGIN + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{_SVG_H - _MARGIN + 20}" font-size="11" '
            f'text-anchor="middle">1e{e}</text>'
        )
    for e in range(math.ceil(ly_lo), math.floor(ly_hi) + 1):
        py = Y(10.0**e)
        out.append(
            f'<line x1="{_MARGIN - 5}" y1="{py:.2f}" x2="{_MARGIN}" '
            f'y2="{py:.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_MARGIN - 8}" y="{py + 4:.2f}" font-size="11" '
            f'text-anchor="end">1e{e}</text>'
        )
    out.append(
        f'<text x="{_SVG_W // 2}" y="{_SVG_H - 15}" font-size="13" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{_SVG_H // 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {_SVG_H // 2})">{ylabel}</text>'
    )
    for (xa, ya), (xb, yb), s in ref_lines:
        out.append(
            f'<line x1="{X(xa):.2f}" y1="{Y(ya):.2f}" x2="{X(xb):.2f}" '
            f'y2="{Y(yb):.2f}" stroke="gray" stroke-dasharray="5,4"/>'
        )
        out.append(
            f'<text x="{X(xb) + 4:.2f}" y="{Y(yb):.2f}" font-size="11" '
            f'fill="gray">slope {s:g}</text>'
        )
    path_pts = " ".join(f"{X(x):.2f},{Y(y):.2f}" for x, y in pts)
    out.append(
        f'<polyline points="{path_pts}" fill="none" stroke="steelblue" stroke-width="1"/>'
    )
    for x, y in pts:
        out.append(
            f'<circle cx="{X(x):.2f}" cy="{Y(y):.2f}" r="3.5" fill="steelblue"/>'
        )
    out.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(out) + "\n")


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def _flag_type(parse, ok, expected: str):
    """An argparse type: ``parse(text)``, which must satisfy ``ok``."""

    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return convert


def _build_parser() -> argparse.ArgumentParser:
    defaults = ExperimentConfig()
    p = argparse.ArgumentParser(
        prog="medlattice",
        description=(
            "Median lattice approximation benchmark: run the algorithm on the "
            "built-in test functions across evaluation budgets and report "
            "exact L2 errors"
        ),
    )
    p.add_argument("--function", choices=tuple(DEFAULT_ALPHA), default=defaults.function)
    p.add_argument("--alpha", type=float, default=defaults.alpha,
                   help="smoothness parameter (default depends on --function)")
    p.add_argument("--gamma", default=defaults.gammas,
                   help='comma list "1,0.5,..." or decay spec "poly:beta" (default all ones)')
    p.add_argument("--dim", type=int, default=defaults.dim)
    p.add_argument("--delta", type=float, default=defaults.delta)
    p.add_argument("--budgets", default=None,
                   type=_flag_type(lambda t: tuple(int(e) for e in t.split(",")),
                                   lambda v: min(v) >= 0, "integers >= 0 separated by commas"),
                   help="comma list of power-of-2 exponents, default 10..18")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--runs", type=int, default=defaults.runs_per_budget,
                   help="runs per budget")
    p.add_argument("--out", default=defaults.out, help="CSV output path (default stdout)")
    p.add_argument("--fig", type=int, choices=(1, 2, 3), default=1,
                   help="1: error vs M; 2: error vs N_star; 3: N_star vs M")
    p.add_argument("--svg", default=None, help="also write an SVG plot here")
    p.add_argument("--workers", type=int, default=defaults.workers,
                   help="threads for the repetition loop")
    return p


def _config_from_args(args) -> ExperimentConfig:
    budgets = {} if args.budgets is None else {"budgets": tuple(2**e for e in args.budgets)}
    return ExperimentConfig(
        function=args.function,
        alpha=args.alpha,
        gammas=args.gamma,
        dim=args.dim,
        delta=args.delta,
        seed=args.seed,
        runs_per_budget=args.runs,
        out=args.out,
        workers=args.workers,
        **budgets,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except _FieldError as err:
        parser.error(f"argument {err.flag}: {err}")
    exps = args.budgets or FIG3_EXPONENTS
    budgets = [2**e for e in exps] if args.fig == 3 else config.budgets
    # a budget's validity depends on --delta and, here, on --fig
    try:
        for M in budgets:
            _find_Nmax(BudgetSpec(M, config.delta))
    except ValueError as err:
        parser.error(f"argument --budgets: {err}")
    alpha = config.resolved_alpha()

    if args.fig == 3:
        rows = figure3_table(config, exponents=exps)
        text = emit_figure3_csv(config, rows)
        if config.out:
            with open(config.out, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        pts = [(r.M, r.N_star) for r in rows if r.N_star > 0]
        labels = {"xlabel": "M", "ylabel": "N_star"}
    else:
        selections: Dict[int, SelectedParams] = {}
        try:
            records = run_experiment(config, selections)
        except _FieldError as err:
            # a budget over the cap, refused before any run
            parser.error(f"argument {err.flag}: {err}")
        if not config.out:
            sys.stdout.write(emit_csv(config, records, selections))
        feasible = [r for r in records if r.feasible and r.squared_L2_error is not None]
        usable = [r for r in feasible if r.squared_L2_error > 0]
        if len(usable) >= 3:
            errs = [math.sqrt(r.squared_L2_error) for r in usable]
            vs_M = fit_rate(list(zip((r.M for r in usable), errs)))
            vs_Nstar = fit_rate(list(zip((r.N_star for r in usable), errs)))
            print(
                f"rate vs M:      slope {vs_M.slope:+.4f}  (R^2 {vs_M.r_squared:.4f})",
                file=sys.stderr,
            )
            print(
                f"rate vs N_star: slope {vs_Nstar.slope:+.4f}  (R^2 {vs_Nstar.r_squared:.4f})",
                file=sys.stderr,
            )
        pts = [(r.N_star if args.fig == 2 else r.M, math.sqrt(r.squared_L2_error))
               for r in usable]
        labels = {"xlabel": "N_star" if args.fig == 2 else "M", "ylabel": "L2 error",
                  "ref_slopes": (-alpha / 2.0, -3.0 * alpha / 4.0, -alpha)}
    if not args.svg:
        return 0
    if not pts:
        print(f"medlattice: no positive points to plot; {args.svg} not written",
              file=sys.stderr)
        return 1
    write_svg_scatter(args.svg, pts, **labels)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
