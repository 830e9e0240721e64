"""Cold start: each import loads only the modules its importer uses.

Every new process compiles the modules it imports (from source when no
bytecode cache exists), so a package ``__init__`` that pulls in
CLI-only helpers taxes every library user. These checks run a fresh
interpreter and compare module names, never times.
"""

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: The library entry points the benchmark and the examples import.
LIBRARY_IMPORTS = ("repro.sim", "repro.drm", "repro.drm.roap",
                   "repro.usecases", "repro.analysis.overload")

#: Analysis modules a library import may load.
ANALYSIS_ALLOWED = frozenset({"repro.analysis", "repro.analysis.overload",
                              "repro.analysis.common",
                              "repro.analysis.formatting"})

#: Packages and modules only the CLI, the report or the tests need.
CLI_ONLY = ("repro.lint", "repro.perf", "repro.adversary",
            "repro.core.battery", "repro.core.concurrency",
            "repro.core.design_space", "repro.core.report",
            "repro.core.serialization", "repro.obs.export",
            "repro.obs.profile")


def loaded_after(*modules):
    """The ``repro`` module names a fresh interpreter holds after importing."""
    code = ("import sys\n"
            "sys.path.insert(0, %r)\n" % str(SRC)
            + "".join("import %s\n" % name for name in modules)
            + "print('\\n'.join(sorted(m for m in sys.modules\n"
              "    if m == 'repro' or m.startswith('repro.'))))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_bare_import_loads_only_the_package():
    assert loaded_after("repro") == {"repro"}


def unwanted(loaded):
    """Loaded modules that only the CLI's own commands need."""
    found = {name for name in loaded
             if any(name == prefix or name.startswith(prefix + ".")
                    for prefix in CLI_ONLY)}
    return found | {name for name in loaded
                    if name.startswith("repro.analysis")
                    and name not in ANALYSIS_ALLOWED}


def test_library_imports_leave_cli_only_modules_unloaded():
    loaded = loaded_after(*LIBRARY_IMPORTS)
    assert set(LIBRARY_IMPORTS) <= loaded
    assert not unwanted(loaded)


def test_cli_imports_each_command_in_its_handler():
    # ``python -m repro table1`` must not pay for the linter, the perf
    # gate, the attack engine or any other command's analysis.
    loaded = loaded_after("repro.cli")
    assert "repro.cli" in loaded
    assert not unwanted(loaded)
    assert "repro.analysis.overload" not in loaded
