"""Package surface and import budget.

``lindley_alt`` resolves its public names on first use, and each CLI
command loads only the layers it calls. The budget tests run each import
or command in a fresh interpreter and read its ``sys.modules``.
"""

import json
import os
import subprocess
import sys

import pytest

import lindley_alt
from lindley_alt.cli import _BLAS_THREAD_VARIABLES, RunConfig
from lindley_alt.errors import InputError
from lindley_alt.oracle import MIN_SIMULATION_STEPS

#: Runs one CLI invocation in-process and prints [exit code, sys.modules].
_RUN_MAIN = """
import contextlib, io, json, sys
from lindley_alt.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main({argv!r})
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""

#: Layer modules of the package that the budget tests watch.
_LAYERS = ("solver", "_exact", "oracle", "bounds")


#: Runs ``{body}`` and prints the variables it added, changed or removed.
_ENV_CHANGES = """
import contextlib, io, json, os
before = dict(os.environ)
{body}
after = dict(os.environ)
keys = before.keys() | after.keys()
print(json.dumps({{k: after.get(k) for k in keys if before.get(k) != after.get(k)}}))
"""


def _fresh(script: str, env=None):
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _run_main(argv):
    code, modules = _fresh(_RUN_MAIN.format(argv=argv))
    return code, set(modules)


class TestPublicSurface:
    def test_every_name_resolves_to_its_home_object(self):
        for name in lindley_alt.__all__:
            if name == "__version__":
                continue
            obj = getattr(lindley_alt, name)
            assert getattr(sys.modules[obj.__module__], name) is obj, name

    def test_dir_lists_every_public_name(self):
        assert set(lindley_alt.__all__) <= set(dir(lindley_alt))

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from lindley_alt import *", namespace)
        assert set(lindley_alt.__all__) <= namespace.keys()

    def test_unknown_name_is_attribute_error(self):
        assert not hasattr(lindley_alt, "no_such_name")
        with pytest.raises(AttributeError, match="no_such_name"):
            lindley_alt.no_such_name

    def test_names_resolve_lazily_in_a_fresh_process(self):
        loaded, solve_module = _fresh(
            "import json, sys, lindley_alt\n"
            "loaded = 'lindley_alt.solver' in sys.modules\n"
            "print(json.dumps([loaded, lindley_alt.solve.__module__]))"
        )
        assert (loaded, solve_module) == (False, "lindley_alt.solver")


class TestRunConfigStandsAlone:
    def test_service_and_distribution_without_main(self):
        rate, coeffs = _fresh(
            "import json\n"
            "from lindley_alt.cli import RunConfig\n"
            "config = RunConfig(command='solve', dist='uniform')\n"
            "print(json.dumps([config.service.rate, list(config.distribution().coeffs)]))"
        )
        assert (rate, coeffs) == (1.0, [0.0, 1.0])

    def test_samples_floor_message(self):
        with pytest.raises(InputError) as excinfo:
            RunConfig(command="verify", samples=10)
        assert str(excinfo.value) == "samples must lie in [10000, 1e8], got 10"

    def test_default_samples_clear_the_floor(self):
        # RunConfig skips the floor check (and the oracle import) for the default
        assert MIN_SIMULATION_STEPS <= RunConfig.samples <= 10**8


class TestImportBudget:
    @pytest.mark.parametrize("module", ["lindley_alt", "lindley_alt.cli"])
    def test_import_loads_no_numpy(self, module):
        modules = _fresh(f"import json, sys, {module}\nprint(json.dumps(sorted(sys.modules)))")
        assert "numpy" not in modules

    def test_cli_import_loads_no_dataclasses_or_inspect(self):
        modules = _fresh("import json, sys, lindley_alt.cli\nprint(json.dumps(sorted(sys.modules)))")
        assert not {"dataclasses", "inspect"} & set(modules)

    def test_cli_import_adds_only_the_standard_library(self):
        # a cold `python -m lindley_alt.cli` pays for every module it adds
        added = _fresh(
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import lindley_alt.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        )
        ours = {"lindley_alt", "lindley_alt.errors", "lindley_alt.cli"}
        assert ours <= set(added)
        foreign = [m for m in added if m.split(".")[0] not in sys.stdlib_module_names]
        assert set(foreign) <= ours, foreign

    def test_package_import_adds_only_itself_and_its_errors(self):
        added = _fresh(
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import lindley_alt\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        )
        assert added == ["lindley_alt", "lindley_alt.errors"]

    @pytest.mark.parametrize(
        "argv,code", [(["--version"], 0), (["--help"], 0), (["table1", "--mu", "3"], 2)]
    )
    def test_no_command_run_loads_no_numpy(self, argv, code):
        got, modules = _run_main(argv)
        assert got == code
        assert "numpy" not in modules
        assert not {f"lindley_alt.{m}" for m in ("distributions", *_LAYERS)} & modules

    def test_fit_loads_no_solver_oracle_or_bounds(self):
        code, modules = _run_main(["fit", "--dist", "triangular", "--order", "5"])
        assert code == 0
        assert "lindley_alt.bernstein" in modules
        assert not {f"lindley_alt.{m}" for m in _LAYERS} & modules
        # only the service kernel integrates against the exponential
        assert not {"lindley_alt._moments", "lindley_alt._numeric", "cmath"} & modules

    def test_verify_loads_no_numpy_ma(self):
        code, modules = _run_main(
            ["verify", "--dist", "triangular", "--order", "5", "--samples", "20000"]
        )
        assert code == 0
        assert "lindley_alt.oracle" in modules
        assert "numpy.ma" not in modules

    def test_solve_loads_no_oracle_or_bounds(self):
        code, modules = _run_main(["solve", "--dist", "uniform"])
        assert code == 0
        assert "lindley_alt.solver" in modules
        assert not {"lindley_alt.oracle", "lindley_alt.bounds"} & modules


def _env_changes(body: str, **user_env):
    """What ``body`` changes in ``os.environ`` of a fresh process whose
    environment sets no BLAS thread count beyond ``user_env``."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARIABLES}
    return _fresh(_ENV_CHANGES.format(body=body), env={**env, **user_env})


_FIT = (
    "from lindley_alt.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert main(['fit', '--dist', 'uniform', '--order', '2']) == 0"
)


class TestBlasThreads:
    def test_main_runs_blas_on_one_thread(self):
        assert _env_changes(_FIT) == {"OPENBLAS_NUM_THREADS": "1"}

    @pytest.mark.parametrize("variable", _BLAS_THREAD_VARIABLES)
    def test_a_users_thread_count_is_kept(self, variable):
        assert _env_changes(_FIT, **{variable: "3"}) == {}

    @pytest.mark.parametrize("module", ["lindley_alt", "lindley_alt.cli"])
    def test_import_leaves_the_environment(self, module):
        assert _env_changes(f"import {module}") == {}

    def test_main_after_numpy_leaves_the_environment(self):
        # the embedding process's BLAS has started; a variable set now would
        # only reach its child processes
        assert _env_changes("import numpy\n" + _FIT) == {}
