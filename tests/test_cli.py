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

from lindley_alt.cli import RunConfig, main
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


class TestErrorChannels:
    def test_invalid_polynomial_reports_violations(self, capsys):
        bad = '{"type": "polynomial", "coeffs": [0.5, 0.2]}'  # sums to 0.7
        rc = main(["solve", "--dist", bad])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NotACdf"
        assert isinstance(err["violations"], list) and err["violations"]

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
