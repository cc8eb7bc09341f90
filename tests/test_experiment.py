"""
Tests for the convergence-experiment harness: exact Parseval errors, the
CSV format and its inverse, rate fitting, the parameter-selection table,
SVG output, and the command line.
"""

import math
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from medlattice import (
    BudgetSpec,
    ExperimentConfig,
    ProductWeights,
    SmoothnessParams,
    cosine_pair_oracle,
    enumerate_hyperbolic_cross,
    exact_squared_error,
    figure3_table,
    fit_rate,
    run_experiment,
    select_params,
)
from medlattice import test_function_f2 as function_f2
from medlattice.experiment import (
    ExperimentRecord,
    emit_csv,
    emit_figure3_csv,
    main,
    parse_csv,
    write_svg_scatter,
    _build_parser,
)
from medlattice.korobov import SpectralOracle
from medlattice.median_approx import AlgorithmParams, MedianApproximation, Provenance


D1 = SmoothnessParams(2.5, 1)
W1 = ProductWeights([1.0])


def hand_built_approx(oracle, L, perturb=None):
    """A MedianApproximation whose coefficients equal the oracle's exactly,
    optionally with one index shifted by ``perturb``."""
    cross = enumerate_hyperbolic_cross(L, D1, W1)
    coeffs = {h: oracle.coefficient(h) for h in cross.indices}
    if perturb is not None:
        h, dv = perturb
        coeffs[h] = coeffs[h] + dv
    ap = AlgorithmParams(
        N=5, R=1, tau=1.0, P_N=1.0, N_star=4.0 / math.e, master_seed=0
    )
    prov = Provenance(params=ap, problem=D1, weights=W1)
    return MedianApproximation(
        index_set=cross, coefficients=coeffs, provenance=prov, eval_count=5
    )


class TestExactSquaredError:
    def test_pure_truncation(self):
        """With exact coefficients the error is the mass outside the set."""
        f = function_f2(1)
        approx = hand_built_approx(f, 4.0)
        err = exact_squared_error(f, approx)
        inside = sum(abs(f.coefficient(h)) ** 2 for h in approx.index_set.indices)
        assert err >= 0.0
        assert err + inside == pytest.approx(f.l2_norm_sq, rel=1e-14)

    def test_perturbation_adds_quadratically(self):
        """Shifting one coefficient by dv adds exactly |dv|^2."""
        f = function_f2(1)
        base = exact_squared_error(f, hand_built_approx(f, 4.0))
        h = hand_built_approx(f, 4.0).index_set.indices[0]
        shifted = exact_squared_error(f, hand_built_approx(f, 4.0, perturb=(h, 3e-4j)))
        assert shifted - base == pytest.approx(9e-8, rel=1e-9)

    def test_full_recovery_is_zero(self):
        """A single-pair oracle captured exactly inside the set gives 0."""
        f = cosine_pair_oracle((1,))
        approx = hand_built_approx(f, 2.0)
        assert exact_squared_error(f, approx) == 0.0

    def test_tiny_negative_floored(self):
        f = SpectralOracle(
            dim=1,
            coefficient=lambda h: 1.0 if h == (0,) else 0.0,
            evaluate=lambda X: np.ones(X.shape[0]),
            l2_norm_sq=1.0 - 1e-15,
        )
        assert exact_squared_error(f, hand_built_approx(f, 2.0)) == 0.0

    def test_inconsistent_oracle_raises(self):
        """A norm far below the coefficient mass is a contract violation."""
        f = SpectralOracle(
            dim=1,
            coefficient=lambda h: 1.0 if h == (0,) else 0.0,
            evaluate=lambda X: np.ones(X.shape[0]),
            l2_norm_sq=0.5,
        )
        with pytest.raises(ValueError, match="negative beyond"):
            exact_squared_error(f, hand_built_approx(f, 2.0))


class TestRunExperiment:
    def test_exact_recovery_in_exp_mode(self):
        """The cosine pair lies inside the 9-element cross at 2^14, so the
        algorithm returns it to rounding error."""
        cfg = ExperimentConfig(function="exp", dim=2, budgets=(2**14,), seed=7)
        (rec,) = run_experiment(cfg)
        assert rec.feasible
        assert rec.index_set_size == 9
        assert rec.N == 863 and rec.R == 17 and rec.M == 863 * 17
        assert rec.squared_L2_error <= 1e-18

    def test_infeasible_budgets_keep_their_rows(self):
        cfg = ExperimentConfig(function="f1", dim=2, budgets=(2**10, 2**11))
        records = run_experiment(cfg)
        assert len(records) == 2
        for rec in records:
            assert not rec.feasible
            assert rec.squared_L2_error is None
            assert rec.index_set_size == 0
            assert rec.M == rec.N * rec.R

    def test_error_decreases_along_grid(self):
        """d = 1 errors for the smooth test function drop by decades."""
        cfg = ExperimentConfig(
            function="f2", dim=1, budgets=(2**12, 2**13, 2**14, 2**15), seed=11
        )
        errs = [r.squared_L2_error for r in run_experiment(cfg)]
        assert all(e > 0 for e in errs)
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[0] / errs[-1] > 1e3

    def test_runs_per_budget(self):
        cfg = ExperimentConfig(
            function="exp", dim=2, budgets=(2**14,), seed=3, runs_per_budget=3
        )
        records = run_experiment(cfg)
        assert [r.run_index for r in records] == [0, 1, 2]
        assert len({r.M_max for r in records}) == 1

    def test_worker_count_does_not_change_results(self):
        """Byte-identical CSV from 1 and 4 worker threads, same seed."""
        base = dict(function="f2", dim=1, budgets=(2**13, 2**14), seed=5)
        a = run_experiment(ExperimentConfig(workers=1, **base))
        b = run_experiment(ExperimentConfig(workers=4, **base))
        ca = emit_csv(ExperimentConfig(workers=1, **base), a)
        cb = emit_csv(ExperimentConfig(workers=4, **base), b)
        assert ca == cb
        assert a == b

    def test_seed_changes_results(self):
        cfg5 = ExperimentConfig(function="f2", dim=1, budgets=(2**13,), seed=5)
        cfg6 = ExperimentConfig(function="f2", dim=1, budgets=(2**13,), seed=6)
        (r5,) = run_experiment(cfg5)
        (r6,) = run_experiment(cfg6)
        assert r5.squared_L2_error != r6.squared_L2_error

    def test_out_path_writes_parseable_file(self, tmp_path):
        out = tmp_path / "exp.csv"
        cfg = ExperimentConfig(function="exp", dim=2, budgets=(2**14,), out=str(out))
        records = run_experiment(cfg)
        text = out.read_text()
        assert text.startswith("#function=exp\n")
        assert "#select.16384=" in text
        assert "#conditions.16384=" in text
        assert parse_csv(text) == records


class TestCsvFormat:
    def test_round_trip(self):
        cfg = ExperimentConfig(function="f2", dim=1, budgets=(2**12, 2**13), seed=2)
        records = run_experiment(cfg)
        assert parse_csv(emit_csv(cfg, records)) == records

    def test_round_trip_with_infeasible_rows(self):
        cfg = ExperimentConfig(function="f1", dim=2, budgets=(2**10, 2**14), seed=2)
        records = run_experiment(cfg)
        text = emit_csv(cfg, records)
        again = parse_csv(text)
        assert again == records
        assert again[0].squared_L2_error is None

    def test_byte_determinism(self):
        """Re-running the same config reproduces the file byte for byte."""
        cfg = ExperimentConfig(function="f2", dim=1, budgets=(2**12, 2**13), seed=9)
        t1 = emit_csv(cfg, run_experiment(cfg))
        t2 = emit_csv(cfg, run_experiment(cfg))
        assert t1 == t2
        assert "\r" not in t1 and t1.endswith("\n")

    def test_header_records_the_configuration(self):
        cfg = ExperimentConfig(
            function="f2", dim=1, gammas=[0.5], budgets=(2**12,), seed=2
        )
        text = emit_csv(cfg, run_experiment(cfg))
        header = [l for l in text.splitlines() if l.startswith("#")]
        assert "#alpha=2.5" in header
        assert "#gamma=0.5" in header
        assert "#dim=1" in header
        assert "#seed=2" in header
        assert "#budgets=4096" in header

    def test_malformed_row_rejected(self):
        cfg = ExperimentConfig(function="exp", dim=2, budgets=(2**14,))
        text = emit_csv(cfg, run_experiment(cfg))
        broken = text + "1,2,3\n"
        with pytest.raises(ValueError, match="malformed"):
            parse_csv(broken)

    def test_unparsable_field_names_its_row(self):
        cfg = ExperimentConfig(function="exp", dim=2, budgets=(2**14,))
        lines = emit_csv(cfg, run_experiment(cfg)).splitlines()
        fields = lines[-1].split(",")
        fields[2] = "x"   # the N column
        broken = "\n".join(lines[:-1] + [",".join(fields)]) + "\n"
        with pytest.raises(ValueError, match=f"^malformed row '{','.join(fields)}': invalid literal"):
            parse_csv(broken)

    def test_other_columns_rejected(self):
        """A --fig 3 table is not an error CSV, though its rows have as many
        fields as its column line."""
        cfg = ExperimentConfig(function="exp", dim=2)
        text = emit_figure3_csv(cfg, figure3_table(cfg, exponents=(12,)))
        with pytest.raises(ValueError, match="^malformed column line 'M_max,N,R,M,tau_star,N_star'$"):
            parse_csv(text)


class TestFitRate:
    def test_exact_power_law(self):
        pts = [(x, 7.0 * x**-2.0) for x in (10.0, 100.0, 1000.0, 10000.0)]
        fit = fit_rate(pts)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(314)
        xs = np.geomspace(10, 1e5, 25)
        ys = 3.0 * xs**-1.5 * (1.0 + 0.01 * rng.standard_normal(xs.size))
        fit = fit_rate(list(zip(xs, ys)))
        assert abs(fit.slope + 1.5) < 0.05
        assert fit.r_squared > 0.99

    def test_constant_data(self):
        fit = fit_rate([(1.0, 5.0), (2.0, 5.0), (4.0, 5.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)
        assert fit.r_squared == 1.0

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_rate([(1.0, 1.0), (2.0, 0.5)])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            fit_rate([(1.0, 1.0), (2.0, 0.0), (3.0, 0.1)])
        with pytest.raises(ValueError, match="positive"):
            fit_rate([(-1.0, 1.0), (2.0, 0.5), (3.0, 0.1)])


class TestFigure3:
    def test_alpha_drops_out_with_unit_weights(self):
        """With gamma = 1 the selection depends on alpha only through
        gamma^(1/(2 alpha)) = 1, so the whole table coincides."""
        a = figure3_table(ExperimentConfig(dim=2, alpha=1.5), exponents=range(10, 19))
        b = figure3_table(ExperimentConfig(dim=2, alpha=2.5), exponents=range(10, 19))
        assert a == b

    def test_default_grid_shape_and_monotonicity(self):
        rows = figure3_table(ExperimentConfig(dim=2))
        assert len(rows) == 17
        assert [r.M_max for r in rows] == [2**e for e in range(10, 27)]
        n_stars = [r.N_star for r in rows]
        assert all(a <= b for a, b in zip(n_stars, n_stars[1:]))
        for r in rows:
            assert 0.0 < r.N_star <= r.N - 1
            assert r.M == r.N * r.R <= r.M_max
            assert r.R % 2 == 1

    def test_agrees_with_select_params(self):
        (row,) = figure3_table(ExperimentConfig(dim=2), exponents=(14,))
        sp = select_params(
            BudgetSpec(2**14, 0.01), SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0])
        )
        assert row.N == sp.N_max and row.R == sp.R
        assert row.tau_star == sp.tau_star and row.N_star == sp.N_star

    def test_rows_agree_with_run_experiment(self):
        """One builder makes both tables' rows: the --fig 3 rows carry the
        same selection and feasibility as the records of a run, and 2^12
        (N_star 0.504) is not runnable."""
        cfg = ExperimentConfig(dim=2)
        rows = figure3_table(cfg, exponents=(12, 14))
        records = run_experiment(replace(cfg, budgets=(2**12, 2**14)))
        fields = ("M_max", "N", "R", "M", "tau_star", "N_star", "feasible")
        picked = [[[getattr(r, k) for k in fields] for r in t] for t in (rows, records)]
        assert picked[0] == picked[1]
        assert [r.feasible for r in rows] == [False, True]
        assert rows[0].N_star == pytest.approx(0.504, abs=5e-4)

    def test_csv_format(self):
        cfg = ExperimentConfig(dim=2)
        rows = figure3_table(cfg, exponents=(10, 14))
        text = emit_figure3_csv(cfg, rows)
        lines = text.splitlines()
        assert lines[4] == "M_max,N,R,M,tau_star,N_star"
        assert len(lines) == 7
        assert lines[5].startswith("1024,")


class TestSvgOutput:
    def test_well_formed_and_complete(self, tmp_path):
        path = tmp_path / "plot.svg"
        pts = [(10.0, 1.0), (100.0, 0.1), (1000.0, 0.02)]
        write_svg_scatter(str(path), pts, "M", "error", ref_slopes=(-1.0,))
        text = path.read_text()
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert text.count("<circle") == 3
        assert "slope -1" in text
        assert "M" in text and "error" in text

    def test_deterministic(self, tmp_path):
        pts = [(10.0, 1.0), (100.0, 0.25)]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_svg_scatter(str(p1), pts, "x", "y")
        write_svg_scatter(str(p2), pts, "x", "y")
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError, match="no positive points"):
            write_svg_scatter(str(tmp_path / "n.svg"), [(0.0, 1.0)], "x", "y")


class TestConfig:
    def test_alpha_defaults(self):
        assert ExperimentConfig(function="f1").resolved_alpha() == 1.5
        assert ExperimentConfig(function="f2").resolved_alpha() == 2.5
        assert ExperimentConfig(function="exp").resolved_alpha() == 1.5
        assert ExperimentConfig(function="f1", alpha=3.0).resolved_alpha() == 3.0
        with pytest.raises(ValueError):
            ExperimentConfig(function="f9").resolved_alpha()

    def test_weight_specs(self):
        assert ExperimentConfig(dim=3).resolved_weights().gammas == (1.0, 1.0, 1.0)
        w = ExperimentConfig(dim=3, gammas="poly:2").resolved_weights()
        assert w.gammas == pytest.approx((1.0, 0.25, 1.0 / 9.0))
        w = ExperimentConfig(dim=2, gammas="1,0.5").resolved_weights()
        assert w.gammas == (1.0, 0.5)
        w = ExperimentConfig(dim=2, gammas=[1.0, 0.5, 0.25]).resolved_weights()
        assert w.gammas == (1.0, 0.5)
        with pytest.raises(ValueError, match="need 3 weights"):
            ExperimentConfig(dim=3, gammas=[1.0]).resolved_weights()

    def test_oracles(self):
        assert ExperimentConfig(function="f1", dim=3).oracle().dim == 3
        exp = ExperimentConfig(function="exp", dim=2).oracle()
        assert exp.coefficient((1, 1)) == pytest.approx(0.5)

    @pytest.fixture
    def no_run(self, monkeypatch):
        """Any run of the algorithm fails the test."""
        import medlattice.experiment as experiment

        def run(*args, **kwargs):
            raise AssertionError("the algorithm ran")

        monkeypatch.setattr(experiment, "run", run)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("runs_per_budget", 0, "runs_per_budget: expected an integer >= 1, got 0"),
            ("workers", 0, "workers: expected an integer >= 1, got 0"),
            ("function", "f9", "function: expected one of f1, f2, exp, got 'f9'"),
            ("dim", 0, "dim: expected an integer >= 1, got 0"),
            ("delta", 1.0, r"delta: expected a number in \(0, 1\), got 1.0"),
            ("delta", float("nan"), r"delta: expected a number in \(0, 1\), got nan"),
            ("budgets", (), r"budgets: expected at least one budget, got \(\)"),
            ("seed", -1, "seed: expected an integer >= 0, got -1"),
            ("alpha", 0.4, "alpha: alpha must exceed 1/2"),
            ("gammas", "poly:-1", "gammas: beta must be >= 0"),
            ("gammas", "2,1", r"gammas: weights must lie in \(0, 1\]"),
            ("dim", 2.5, "dim: expected an integer >= 1, got 2.5"),
            ("seed", 1.5, "seed: expected an integer >= 0, got 1.5"),
            ("runs_per_budget", 1.5, "runs_per_budget: expected an integer >= 1, got 1.5"),
            ("dim", True, "dim: expected an integer >= 1, got True"),
            ("dim", np.int64(0), r"dim: expected an integer >= 1, got np.int64\(0\)"),
            ("runs_per_budget", True, "runs_per_budget: expected an integer >= 1, got True"),
            ("workers", 2.5, "workers: expected an integer >= 1, got 2.5"),
            ("workers", True, "workers: expected an integer >= 1, got True"),
            ("seed", True, "seed: expected an integer >= 0, got True"),
            ("budgets", (1e4,), r"budgets: expected integers >= 2, got \(10000.0,\)"),
            ("budgets", (2**12, True), r"budgets: expected integers >= 2, got \(4096, True\)"),
            ("budgets", (2**12, 1), r"budgets: expected integers >= 2, got \(4096, 1\)"),
        ],
    )
    def test_refuses_what_the_cli_refuses(self, field, value, message, no_run):
        """A value the CLI refuses is refused by the config itself, before
        run_experiment runs anything (it returned no records for
        runs_per_budget=0, ran workers=0 as one worker, wrote #seed=True
        into the CSV header and failed on budgets=(1e4,) inside the run)."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_experiment(ExperimentConfig(**{"function": "exp", "budgets": (2**12,),
                                               field: value}))

    def test_over_cap_budget_refused_before_any_run(self, no_run):
        """A budget whose cross would exceed the enumeration cap is refused,
        naming it, before the budgets ahead of it are run."""
        cfg = ExperimentConfig(function="exp", budgets=(2**12, 2**64))
        with pytest.raises(ValueError, match=f"^M_max={2**64}: projected cardinality 5.63e"
                                             r"\+15 exceeds the cap 100000000"):
            run_experiment(cfg)


class TestCommandLine:
    def test_parser_defaults(self):
        args = _build_parser().parse_args([])
        assert args.function == "f1"
        assert args.dim == 2
        assert args.fig == 1
        assert args.workers == 1
        assert args.budgets is None
        from medlattice.experiment import _config_from_args

        assert _config_from_args(args) == ExperimentConfig()

    def test_parser_rejects_unknown_function(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["--function", "f9"])

    def test_budget_exponent_list(self):
        args = _build_parser().parse_args(["--budgets", "12,14"])
        from medlattice.experiment import _config_from_args

        cfg = _config_from_args(args)
        assert cfg.budgets == (4096, 16384)

    def test_main_writes_csv(self, tmp_path):
        out = tmp_path / "out.csv"
        rc = main(["--function", "exp", "--budgets", "14", "--out", str(out)])
        assert rc == 0
        records = parse_csv(out.read_text())
        assert len(records) == 1 and records[0].feasible

    def test_main_stdout(self, capsys):
        rc = main(["--function", "exp", "--budgets", "14"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("#function=exp\n")

    def test_main_selects_once_per_budget(self, capsys, monkeypatch):
        """The stdout CSV header reuses the grid loop's selections."""
        import medlattice.experiment as experiment

        calls = []

        def counting(budget, *args, **kwargs):
            calls.append(budget.M_max)
            return select(budget, *args, **kwargs)

        select = experiment.select_params
        monkeypatch.setattr(experiment, "select_params", counting)
        assert main(["--function", "exp", "--budgets", "12,14"]) == 0
        assert calls == [2**12, 2**14]
        out = capsys.readouterr().out
        assert "\n#select.4096=N=241;" in out and "\n#select.16384=N=863;" in out

    def test_main_fig3_with_svg(self, tmp_path):
        out = tmp_path / "fig3.csv"
        svg = tmp_path / "fig3.svg"
        rc = main(
            ["--fig", "3", "--budgets", "12,14,16", "--out", str(out), "--svg", str(svg)]
        )
        assert rc == 0
        assert out.read_text().splitlines()[4] == "M_max,N,R,M,tau_star,N_star"
        ET.fromstring(svg.read_text())

    def test_main_reports_rates(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        rc = main(
            [
                "--function",
                "f2",
                "--dim",
                "1",
                "--budgets",
                "12,13,14,15",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "rate vs M:" in err
        assert "rate vs N_star:" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--budgets", "10,x"),
            ("--budgets", "1"),
            ("--gamma", "1"),
            ("--dim", "0"),
            ("--delta", "2"),
            ("--runs", "0"),
            ("--workers", "0"),
            ("--seed", "-1"),
        ],
    )
    def test_bad_flag_exits_2_naming_it(self, capsys, flag, value):
        """A bad value ends in argparse's usage and one error line naming
        the flag, exit status 2, and no CSV (--gamma 1 is bad at d=2)."""
        argv = ["--function", "exp", "--dim", "2", "--budgets", "12", flag, value]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith(f"medlattice: error: argument {flag}: ")

    @pytest.mark.parametrize("fig", ["1", "2"])
    def test_over_cap_budget_exits_2_naming_it(self, capsys, fig):
        """2^64 for exp at d=2 selects a cross over the enumeration cap: one
        error line naming --budgets and the cap, exit status 2, no CSV,
        where it ended in a traceback after the flag checks."""
        with pytest.raises(SystemExit) as info:
            main(["--function", "exp", "--budgets", "12,64", "--fig", fig])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith(f"medlattice: error: argument --budgets: M_max={2**64}: ")
        assert "exceeds the cap" in errors[0]

    def test_over_cap_message_offers_no_cap_to_raise(self, capsys):
        """The CLI sets no enumeration cap, so its error line names the
        budget, the projected cardinality and the cap, and nothing more:
        no advice to raise `cap`, which only a library caller can."""
        with pytest.raises(SystemExit):
            main(["--function", "exp", "--budgets", "64"])
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [
            f"medlattice: error: argument --budgets: M_max={2**64}: "
            "projected cardinality 5.63e+15 exceeds the cap 100000000"
        ]

    def test_fig3_accepts_an_over_cap_budget(self, capsys):
        """--fig 3 enumerates no cross, so the same budget is a table row."""
        assert main(["--fig", "3", "--function", "exp", "--budgets", "64"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith(f"{2**64},")

    @pytest.mark.parametrize("fig", ["1", "2"])
    def test_svg_with_no_feasible_budget_exits_1(self, tmp_path, capsys, fig):
        """No feasible budget: the CSV is printed, no SVG is written, and one
        stderr line says so; exit status 1."""
        svg = tmp_path / "x.svg"
        argv = ["--function", "f1", "--dim", "2", "--budgets", "10,11", "--fig", fig,
                "--svg", str(svg)]
        assert main(argv) == 1
        assert not svg.exists()
        captured = capsys.readouterr()
        assert captured.out.startswith("#function=f1\n")
        assert captured.err.splitlines() == [
            f"medlattice: no positive points to plot; {svg} not written"]

    def test_python_dash_m_runs_the_cli(self, capsys):
        """``python -m medlattice`` prints the in-process CSV and no runpy
        ``RuntimeWarning``."""
        argv = ["--function", "f2", "--dim", "1", "--budgets", "10"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "medlattice", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stdout == expected
