"""Command-line interface: exit codes, payload shapes, determinism.

Every test drives ``main()`` in-process (argv list in, exit code out), so
stdout/stderr and file effects stay observable through pytest fixtures; a
single subprocess smoke test at the end proves the module entry point runs
outside the test harness too. Exit contract: 0 success, 2 input/validation
error (one-line JSON on stderr), 3 numerical failure.
"""

import ast
import io
import json
import pathlib
import subprocess
import sys

import pytest

from conftest import gammainc_contraction
from lindley_alt.bernstein import bernstein_fit
from lindley_alt.cli import RunConfig, main
from lindley_alt.distributions import triangular_cdf
from lindley_alt.errors import ConvergenceFailure, InputError

#: x^20: P[B > A] rounds to 1 at mu = 100.
X20_SPEC = json.dumps({"type": "polynomial", "coeffs": [0.0] * 20 + [1.0]})

#: A value for every flag of the CLI, and the flags each subcommand reads.
FLAG_VALUES = {
    "dist": "uniform", "mu": "3", "order": "5", "grid": "1024",
    "samples": "20000", "seed": "1", "out": "unused.txt", "format": "csv",
}
KEPT_FLAGS = {
    "solve": {"dist", "mu", "order", "out", "format"},
    "fit": {"dist", "order", "out", "format"},
    "bound": {"dist", "mu", "order", "grid", "out"},
    "verify": {"dist", "mu", "order", "grid", "samples", "seed", "out"},
    "table1": {"out"},
    "figure1": {"out"},
}
REJECTED_FLAGS = [
    (command, flag)
    for command, kept in KEPT_FLAGS.items()
    for flag in FLAG_VALUES
    if flag not in kept
]

#: The committed table1 output; a change that moves a value updates it.
TABLE1_FROZEN = pathlib.Path(__file__).parent / "data" / "table1.csv"

#: What the law's number reader says of anything but an array of numbers.
COEFFS_TEXT = "coefficients must be an array of numbers"
PIECES_TEXT = "breakpoints and polys must be arrays of numbers"

TRIANGULAR_SPEC = (
    '{"type": "piecewise", "breaks": [0.0, 0.5, 1.0],'
    ' "polys": [[0.0, 0.0, 2.0], [-1.0, 4.0, -2.0]]}'
)


@pytest.fixture(scope="module")
def table1_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "table1.csv"
    rc = main(["table1", "--out", str(path)])
    assert rc == 0
    return path.read_text()


class TestRunConfig:
    def test_accepts_defaults(self):
        cfg = RunConfig(command="solve", dist="uniform")
        assert cfg.service.rate == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": 0.0},
            {"mu": -2.0},
            {"mu": float("inf")},
            {"order": 0},
            {"grid": 1000},  # not a power of two
            {"grid": 2**21},  # too large
            {"samples": 0},
            {"seed": -1},
            {"fmt": "xml"},
            {"samples": 5000},  # below the Monte Carlo step minimum
        ],
    )
    def test_rejects_bad_flags(self, kwargs):
        with pytest.raises(InputError):
            RunConfig(command="solve", dist="uniform", **kwargs)

    def test_unknown_field_is_type_error(self):
        with pytest.raises(TypeError, match="unknown fields: colour, size"):
            RunConfig(command="solve", size=3, colour="red")


class TestSolveCommand:
    def test_json_payload_shape(self, capsys):
        rc = main(["solve", "--dist", "uniform"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mu"] == 1.0
        assert payload["coeffs"] == [0.0, 1.0]
        assert payload["pi0"] == pytest.approx(0.6875600077939673, abs=1e-12)
        # both pair members of each root, one coupling per pair
        assert len(payload["roots"]) == 4
        assert len(payload["zetas"]) == 4
        assert len(payload["ds"]) == 4
        assert len(payload["qs"]) == 2
        assert payload["condition_number"] > 1.0

    def test_csv_table(self, tmp_path, capsys):
        out = tmp_path / "solution.csv"
        rc = main(["solve", "--dist", "uniform", "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,f_W,F_W"
        assert len(lines) == 1026  # header + 1025 sample points
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == pytest.approx(0.6875600077939673, abs=1e-9)
        assert float(last[0]) == 1.0
        assert float(last[1]) == pytest.approx(0.0, abs=1e-9)  # f_W(1) = 0
        assert float(last[2]) == pytest.approx(1.0, abs=1e-9)

    def test_default_json_builds_no_table(self, capsys, monkeypatch):
        # the 1025-row table is built only where it is written (csv or --out)
        import lindley_alt.cli as cli_module

        def no_table(solution):
            raise AssertionError("solve built a table it does not write")

        monkeypatch.setattr(cli_module, "_sample_table", no_table)
        assert main(["solve", "--dist", "triangular", "--order", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["mu"] == 1.0

    def test_order_flag_fits_first(self, capsys):
        rc = main(["solve", "--dist", "triangular", "--order", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["coeffs"]) == 4

    def test_non_polynomial_without_order_is_input_error(self, capsys):
        rc = main(["solve", "--dist", "triangular"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError"
        assert "polynomial" in err["message"]

    def test_missing_dist_is_input_error(self, capsys):
        rc = main(["solve"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InputError"

    @pytest.mark.parametrize(
        "argv,code,error",
        [
            (["--dist", "uniform", "--mu", "1e308"], 2, "InputError"),
            (["--dist", "uniform", "--mu", "1e100"], 2, "InputError"),
            (["--dist", "uniform", "--mu", "1e-300"], 2, "InputError"),
            (["--dist", "triangular", "--order", "5", "--mu", "1e40"], 2, "InputError"),
            (["--dist", "triangular", "--order", "16", "--mu", "1e12"], 3, "PostconditionViolation"),
        ],
        ids=["overflow", "root-overflow", "underflow", "seed-collapse", "singular-extended"],
    )
    def test_extreme_rate_is_a_typed_error(self, argv, code, error, capsys):
        # coefficients past the double range, a characteristic polynomial
        # whose terms overflow at a root (r^4 past 1e308 at mu = 1e100), or
        # roots spanning more than the double seeds resolve (a seed of 0 at
        # mu = 1e40) name mu; a density series longer than its cap is a
        # numerical failure
        rc = main(["solve", *argv])
        assert rc == code
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == error
        assert code == 3 or err["message"].startswith(f"mu = {float(argv[-1])!r}")


class TestFitCommand:
    def test_triangular_order_one(self, capsys):
        rc = main(["fit", "--dist", "triangular", "--order", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == 1
        assert payload["coeffs"] == pytest.approx([0.0, 1.0], abs=1e-12)
        assert payload["epsilon"] == pytest.approx(0.125, abs=1e-9)
        assert payload["sup_location"] == pytest.approx(0.25, abs=1e-3)

    def test_json_spec_accepted(self, capsys):
        rc = main(["fit", "--dist", TRIANGULAR_SPEC, "--order", "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["coeffs"]) == pytest.approx(1.0, abs=1e-12)

    def test_requires_order(self, capsys):
        rc = main(["fit", "--dist", "triangular"])
        assert rc == 2
        assert "order" in json.loads(capsys.readouterr().err)["message"]

    def test_csv_format(self, capsys):
        rc = main(["fit", "--dist", "uniform", "--order", "1", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "coeff"
        assert [float(v) for v in lines[1:]] == pytest.approx([0.0, 1.0], abs=1e-12)


class TestBoundCommand:
    def test_triangular_order_one_frozen_values(self, capsys):
        rc = main(["bound", "--dist", "triangular", "--order", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["epsilon"] == pytest.approx(0.125, abs=1e-9)
        assert payload["contraction"] == pytest.approx(0.38072751301529806, abs=1e-10)
        assert payload["certified_bound"] == pytest.approx(0.2018497553615488, rel=1e-9)
        assert payload["alternate_bound"] == pytest.approx(0.3283187994742512, rel=1e-9)
        assert payload["measured_cdf_gap"] == pytest.approx(0.02717909303614674, abs=1e-6)
        assert payload["measured_cdf_gap"] < payload["certified_bound"]
        assert payload["order"] == 1
        assert payload["mu"] == 1.0

    def test_contraction_of_order_40_fit(self, capsys):
        # the order-40 fit's monomial coefficients cancel
        coeffs = bernstein_fit(triangular_cdf(), 40).coeffs
        spec = json.dumps({"type": "polynomial", "coeffs": list(coeffs)})
        rc = main(["bound", "--dist", spec, "--order", "5", "--mu", "0.001", "--grid", "1024"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        want = gammainc_contraction(coeffs, 0.001)
        assert payload["contraction"] == pytest.approx(want, rel=1e-3)
        assert payload["alternate_bound"] == payload["epsilon"] / payload["contraction"]

    def test_requires_order(self, capsys):
        rc = main(["bound", "--dist", "triangular"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InputError"

    def test_contraction_rounding_to_one(self, capsys, monkeypatch):
        # no certificate exists, so the command exits 2 before any fit
        import lindley_alt.bounds as bounds_module

        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before the contraction check")

        monkeypatch.setattr(bounds_module, "fit_report", no_fit)
        rc = main(["bound", "--dist", X20_SPEC, "--order", "20", "--mu", "100"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "InputError"
        assert "rounds to 1" in payload["message"]


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        rc = main(
            ["verify", "--dist", "triangular", "--order", "5", "--samples", "60000"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("PASS") for line in lines)
        names = {line.split()[1] for line in lines}
        assert names == {
            "integral_equation_residual",
            "fixed_point_cdf_gap",
            "monte_carlo_ks",
            "monte_carlo_pi0_gap",
        }

    def test_fixed_point_oracle_at_high_rate(self, capsys):
        rc = main(["verify", "--dist", "uniform", "--mu", "1000", "--samples", "60000"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines)

    def test_monte_carlo_tolerance_scales_with_samples(self, capsys):
        # 2*10^4 steps: KS 6.2e-3 is sampling noise, inside 5e-3*sqrt(50)
        rc = main(["verify", "--dist", "uniform", "--mu", "1000", "--samples", "20000"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines)
        assert lines[2].endswith("< 3.536e-02")

    def test_contraction_rounding_to_one(self, capsys):
        # P[B > A] = 1 - 2.4e-22 rounds to 1; the fixed-point cap stays finite
        rc = main(["verify", "--dist", X20_SPEC, "--mu", "100", "--samples", "20000",
                   "--grid", "1024"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("PASS") for line in lines)

    def test_polynomial_dist_needs_no_order(self, capsys):
        rc = main(["verify", "--dist", "uniform", "--samples", "60000"])
        assert rc == 0
        assert all(
            line.startswith("PASS")
            for line in capsys.readouterr().out.strip().splitlines()
        )


class TestTable1Command:
    def test_header_and_shape(self, table1_csv):
        lines = table1_csv.strip().splitlines()
        assert lines[0] == (
            "n,fit_error,density_excess,cdf_gap,alternate_bound,"
            "certified_bound,density_sup"
        )
        assert len(lines) == 4
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "5", "10"]

    def test_frozen_benchmark_values(self, table1_csv):
        rows = {}
        for line in table1_csv.strip().splitlines()[1:]:
            cells = line.split(",")
            rows[int(cells[0])] = [float(c) for c in cells[1:]]
        eps = [rows[n][0] for n in (1, 5, 10)]
        assert eps == pytest.approx([0.125, 0.0664101954, 0.0385750351], abs=1e-8)
        excess = [rows[n][1] for n in (1, 5, 10)]
        assert excess == pytest.approx(
            [0.0837296763, 0.0444344898, 0.0257690983], abs=1e-8
        )
        alternate = [rows[n][3] for n in (1, 5, 10)]
        assert alternate == pytest.approx(
            [0.328318799, 0.174429725, 0.101319274], abs=1e-8
        )
        certified = [rows[n][4] for n in (1, 5, 10)]
        assert certified == pytest.approx(
            [0.201849755, 0.107239054, 0.0622908912], abs=1e-8
        )
        for n in (1, 5, 10):
            assert rows[n][2] < rows[n][4]  # measured gap below certified bound

    def test_matches_committed_table(self, table1_csv):
        # table1 | verify compares a run only with itself; this file is the
        # table as committed, so drift from one change to the next shows
        got, frozen = table1_csv.splitlines(), TABLE1_FROZEN.read_text().splitlines()
        assert got[0] == frozen[0] and len(got) == len(frozen)
        for row, want in zip(got[1:], frozen[1:]):
            values = [float(c) for c in row.split(",")]
            assert values == pytest.approx([float(c) for c in want.split(",")], rel=0, abs=1e-9)

    def test_round_trip_through_verify(self, table1_csv, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(table1_csv))
        rc = main(["verify"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("PASS") for line in lines)

    def test_tampered_table_fails_verify(self, table1_csv, capsys, monkeypatch):
        lines = table1_csv.strip().splitlines()
        cells = lines[1].split(",")
        cells[1] = f"{float(cells[1]) + 1e-6:.9g}"  # nudge one value past 1e-9
        lines[1] = ",".join(cells)
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        rc = main(["verify"])
        assert rc == 3
        assert any(
            line.startswith("FAIL")
            for line in capsys.readouterr().out.strip().splitlines()
        )

    @pytest.mark.parametrize("flag", ["mu", "order", "grid", "samples", "seed"])
    def test_stream_verify_takes_only_out(self, flag, table1_csv, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(table1_csv))
        rc = main(["verify", f"--{flag}", "9"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InputError"
        assert f"--{flag}" in err["message"]

    def test_foreign_stdin_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("a,b,c\n1,2,3\n"))
        rc = main(["verify"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InputError"

    @pytest.mark.parametrize("edit", ["one_cell", "header_only", "missing_row", "repeated_row"])
    def test_malformed_table_is_input_error(self, edit, table1_csv, capsys, monkeypatch):
        # each benchmark row exactly once, with the header's seven cells
        header, *rows = table1_csv.strip().splitlines()
        body = {
            "one_cell": ["1,0.125"],
            "header_only": [],
            "missing_row": rows[:2],
            "repeated_row": rows + rows[:1],
        }[edit]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join([header, *body]) + "\n"))
        rc = main(["verify"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "InputError"

    def test_nan_cell_fails_verify(self, table1_csv, capsys, monkeypatch):
        # a NaN gap that is not a row's first must not drop out of its maximum
        lines = table1_csv.strip().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",nan"
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        rc = main(["verify"])
        assert rc == 3
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("FAIL") and first.endswith("max gap nan")

    def test_deterministic(self, table1_csv, capsys):
        rc = main(["table1"])
        assert rc == 0
        assert capsys.readouterr().out == table1_csv


class TestFigure1Command:
    def test_writes_both_grids(self, tmp_path, capsys):
        prefix = tmp_path / "fig"
        rc = main(["figure1", "--out", str(prefix)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        cdf_lines = (tmp_path / "fig_cdf.csv").read_text().strip().splitlines()
        dens_lines = (tmp_path / "fig_density.csv").read_text().strip().splitlines()
        assert cdf_lines[0] == "x,F_B,F_B_fit_n1,F_B_fit_n5,F_B_fit_n10"
        assert dens_lines[0] == "x,f_W_fit_n1,f_W_fit_n5,f_W_fit_n10,f_W_reference"
        assert len(cdf_lines) == 1026
        assert len(dens_lines) == 1026
        # the exact CDF sits between 0 and 1 and ends at 1
        last = cdf_lines[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0, abs=1e-12)


    def test_files_match_the_construction_from_fits_and_solves(self, tmp_path, capsys):
        prefix = tmp_path / "fig"
        assert main(["figure1", "--out", str(prefix)]) == 0
        assert capsys.readouterr().out == f"wrote {prefix}_cdf.csv and {prefix}_density.csv\n"
        cdf_text, density_text = _figure1_reference()
        assert (tmp_path / "fig_cdf.csv").read_text() == cdf_text
        assert (tmp_path / "fig_density.csv").read_text() == density_text

    def test_reads_the_benchmark_certifications(self, tmp_path, capsys, monkeypatch):
        # figure1 takes its fits, solutions and reference grid from the
        # certifications table1 reads, and makes no such call of its own
        import lindley_alt.cli as cli_module

        def refuse(*args, **kwargs):
            raise AssertionError("figure1 made a call of its own")

        for name in ("bernstein_fit", "solve", "fixed_point_solve", "FixedPointProblem"):
            monkeypatch.setattr(cli_module, name, refuse, raising=False)
        assert main(["figure1", "--out", str(tmp_path / "fig")]) == 0


def _figure1_reference() -> tuple[str, str]:
    """The two figure1 files as first built: each fit, solve and the
    fixed-point reference made on their own."""
    import numpy as np

    from lindley_alt.cli import _csv
    from lindley_alt.distributions import ExponentialService, eval_cdf
    from lindley_alt.oracle import FixedPointProblem, density_estimate, fixed_point_solve
    from lindley_alt.solver import solve

    tri, svc, orders = triangular_cdf(), ExponentialService(1.0), (1, 5, 10)
    xs = np.arange(1025) / 1024
    fits = {n: bernstein_fit(tri, n) for n in orders}
    solutions = {n: solve(fits[n], svc) for n in orders}
    cdf_cols = [xs, eval_cdf(tri, xs)] + [eval_cdf(fits[n], xs) for n in orders]
    cdf_header = ("x", "F_B") + tuple(f"F_B_fit_n{n}" for n in orders)
    grid, _ = fixed_point_solve(FixedPointProblem(tri, svc, grid_size=2**14))
    f_ref = density_estimate(grid)[:: 2**14 // 1024]
    dens_cols = [xs] + [solutions[n].density_series(xs) for n in orders] + [f_ref]
    dens_header = ("x",) + tuple(f"f_W_fit_n{n}" for n in orders) + ("f_W_reference",)
    return (_csv(zip(*[c.tolist() for c in cdf_cols]), header=cdf_header),
            _csv(zip(*[c.tolist() for c in dens_cols]), header=dens_header))


class TestLayerBinding:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--dist", "uniform", "--order", "1"],
            ["solve", "--dist", "triangular", "--order", "2", "--format", "csv"],
            ["bound", "--dist", "uniform", "--order", "1", "--grid", "1024"],
            ["verify", "--dist", "uniform", "--samples", "20000", "--grid", "1024"],
            ["verify"],
            ["table1"],
            ["figure1", "--out", "{tmp}/fig"],
        ],
    )
    def test_command_binds_every_layer_name_it_calls(
        self, argv, table1_csv, tmp_path, capsys, monkeypatch
    ):
        # each command runs as in a fresh process: none of the lazily bound
        # names is bound until main binds the layers listed for the command
        import lindley_alt.cli as cli_module

        for name in cli_module._HOME:
            monkeypatch.delitem(vars(cli_module), name, raising=False)
        monkeypatch.setattr(sys, "stdin", io.StringIO(table1_csv))
        assert main([a.format(tmp=tmp_path) for a in argv]) == 0


class TestErrorChannels:
    def test_invalid_polynomial_reports_violations(self, capsys):
        bad = '{"type": "polynomial", "coeffs": [0.5, 0.2]}'  # sums to 0.7
        rc = main(["solve", "--dist", bad])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NotACdf"
        assert isinstance(err["violations"], list) and err["violations"]

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "polynomial", "coeffs": 5},
            {"type": "polynomial", "coeffs": None},
            {"type": "piecewise", "breaks": [0, 1], "polys": [5]},
            {"type": "piecewise", "breaks": [0, 0.5, 1], "polys": [[], [0, 1]]},
        ],
        ids=["coeffs-number", "coeffs-null", "piece-number", "piece-empty"],
    )
    def test_malformed_spec_is_not_a_cdf(self, spec, capsys):
        rc = main(["fit", "--dist", json.dumps(spec), "--order", "3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "NotACdf"
        assert err["violations"]

    @pytest.mark.parametrize(
        "argv,written",
        [
            (["fit", "--dist", "triangular", "--order", "3", "--out", "{missing}/x.json"],
             "{missing}/x.json"),
            (["solve", "--dist", "triangular", "--order", "3", "--out", "{missing}/s.csv"],
             "{missing}/s.csv"),
            (["figure1", "--out", "{missing}/fig"], "{missing}/fig_cdf.csv"),
        ],
    )
    def test_unwritable_out_is_input_error(self, argv, written, tmp_path, capsys):
        missing = str(tmp_path / "no_such_dir")
        rc = main([a.format(missing=missing) for a in argv])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "InputError"
        assert written.format(missing=missing) in err["message"]

    def test_overflowing_coefficients_leave_one_stderr_line(self):
        # the density scan overflows to nan on these coefficients; numpy must
        # not warn about it, and the violations are those the sum check finds
        spec = '{"type": "polynomial", "coeffs": [0, 1e308, -1e308]}'
        proc = subprocess.run(
            [sys.executable, "-m", "lindley_alt.cli", "solve", "--dist", spec],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "NotACdf"
        assert err["violations"] == ["coefficients must sum to 1 (F(1) = 1); got 0.0"]

    @pytest.mark.parametrize(
        "argv,error,text",
        [
            (["solve", "--dist", '{"type": "triangular"}'], "InputError",
             "solve requires a polynomial CDF"),
            (["solve", "--dist", '{"type": "uniform"}', "--mu", "1e100"], "InputError",
             "mu = 1e+100 is out of range"),
            (["fit", "--dist", '{"coeffs": [0, 1]}', "--order", "2"], "NotACdf",
             "distribution spec must be an object with a 'type' field"),
            (["fit", "--dist", '{"type": "piecewise", "breaks": [0, 0.5, 1], "polys": [[0, 1]]}',
              "--order", "2"], "NotACdf", "need one polynomial per interval between breakpoints"),
            (["fit", "--dist", '{"type": "piecewise", "breaks": [0, 0.6, 0.4, 1], '
              '"polys": [[0, 1], [0, 1], [0, 1]]}', "--order", "2"], "NotACdf",
             "breakpoints must be strictly increasing"),
            (["fit", "--dist", '{"type": "piecewise", "breaks": [0, 1], "polys": [[0, Infinity]]}',
              "--order", "2"], "NotACdf", "coefficients must be finite"),
            (["fit", "--dist", '{"type": "piecewise", "breaks": [0, 1], "polys": [[-0.5, 1.5]]}',
              "--order", "2"], "NotACdf", "value at 0 (atom) must lie in [0, 1); got -0.5"),
            (["fit", "--dist", '{"type": "piecewise", "breaks": [0, 1], "polys": [[0, 0.5]]}',
              "--order", "2"], "NotACdf", "value at x = 1 must be 1; got 0.5"),
            (["solve", "--dist", '{"type": "polynomial", "coeffs": {"0": 0.3, "1": 0.7}}'],
             "NotACdf", COEFFS_TEXT),
            (["solve", "--dist", '{"type": "polynomial", "coeffs": "01"}'], "NotACdf", COEFFS_TEXT),
            (["solve", "--dist", '{"type": "polynomial", "coeffs": [false, true]}'], "NotACdf",
             COEFFS_TEXT),
            (["solve", "--dist", '{"type": "polynomial", "coeffs": ["0.3", "0.7"]}'], "NotACdf",
             COEFFS_TEXT),
            (["solve", "--dist", '{"type": "piecewise", "breaks": "01", "polys": [[0, 1]]}'],
             "NotACdf", PIECES_TEXT),
            (["solve", "--dist", '{"type": "piecewise", "breaks": [0, 1], "polys": [{"0": 0, "1": 1}]}'],
             "NotACdf", PIECES_TEXT),
        ],
        ids=["named-triangular-object", "named-uniform-object", "no-type", "piece-count",
             "breaks-not-increasing", "coefficient-infinite", "atom-negative", "end-not-one",
             "coeffs-object", "coeffs-string", "coeffs-bools", "coeffs-strings", "breaks-string",
             "piece-object"],
    )
    def test_refused_input_names_its_violation(self, argv, error, text, capsys):
        rc = main(argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == error
        assert text in (err["violations"] if error == "NotACdf" else err["message"])

    def test_verify_with_empty_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        rc = main(["verify"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "InputError"
        assert err["message"] == "verify: no --dist given and nothing on stdin"

    def test_malformed_json_spec(self, capsys):
        rc = main(["solve", "--dist", "{not json"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "NotACdf"

    def test_bad_flag_value(self, capsys):
        rc = main(["solve", "--dist", "uniform", "--mu", "-1"])
        assert rc == 2
        assert "mu" in json.loads(capsys.readouterr().err)["message"]

    def test_numerical_failure_maps_to_exit_three(self, capsys, monkeypatch):
        import lindley_alt.cli as cli_module

        def boom(*args, **kwargs):
            raise ConvergenceFailure("forced failure for the exit-code contract")

        monkeypatch.setattr(cli_module, "solve", boom)
        rc = main(["solve", "--dist", "uniform"])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConvergenceFailure"

    @pytest.mark.parametrize("command,flag", REJECTED_FLAGS)
    def test_flag_a_command_does_not_read_is_usage_error(self, command, flag, capsys):
        argv = [command]
        if "dist" in KEPT_FLAGS[command]:
            argv += ["--dist", "uniform"]
        rc = main(argv + [f"--{flag}", FLAG_VALUES[flag]])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "InputError"
        assert f"--{flag}" in err["message"]

    @pytest.mark.parametrize(
        "argv", [[], ["frobnicate"], ["solve", "--dist"], ["fit", "--order", "two"]]
    )
    def test_usage_errors_are_json(self, argv, capsys):
        rc = main(argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "InputError"

    def test_help_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--help"])
        assert excinfo.value.code == 0
        assert "--samples" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "lindley-alt" in capsys.readouterr().out


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "lindley_alt.cli", "fit", "--dist", "triangular",
         "--order", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["epsilon"] == pytest.approx(0.125, abs=1e-9)


def test_no_command_imports_scipy():
    # scipy is a test-only dependency: no CLI command may load any part of it
    script = """
import contextlib, io, sys
from lindley_alt.cli import main
runs = [
    ["fit", "--dist", "triangular", "--order", "5"],
    ["solve", "--dist", "triangular", "--order", "5"],
    ["bound", "--dist", "triangular", "--order", "3"],
    ["table1"],
    ["verify", "--dist", "triangular", "--order", "3", "--samples", "20000"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_double_path_never_imports_mpmath(capsys):
    # mpmath loads only for a solve above degree 12, and such a solve then
    # prints what the same solve prints in this process
    script = """
import contextlib, io, sys
from lindley_alt.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["solve", "--dist", "triangular", "--order", "12"]) == 0
print("mpmath" in sys.modules)
assert main(["solve", "--dist", "triangular", "--order", "16"]) == 0
print("mpmath" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    before, solved, after = proc.stdout.splitlines(keepends=True)
    assert (before, after) == ("False\n", "True\n")
    assert main(["solve", "--dist", "triangular", "--order", "16"]) == 0
    assert capsys.readouterr().out == solved


def test_library_never_imports_scipy():
    # scipy is a test-only dependency: no module of the package imports it
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "lindley_alt"
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert offenders == []
