"""Cold start: each import loads only the modules its importer uses.

Every new process compiles the modules it imports (from source when no
bytecode cache exists), so a package ``__init__`` that pulls in
CLI-only helpers taxes every library user. These checks run a fresh
interpreter and compare module names, never times. The last one also
holds every package importable as the first ``repro`` import of a
process, so no module works only after another one has loaded.
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



#: Packages every module of which is imported first, not just the
#: package: each once held a cycle that only a first import exposed.
FIRST_IMPORT_MODULES = ("repro.obs.", "repro.store.")

#: Imports every package and every ``FIRST_IMPORT_MODULES`` module as
#: the first ``repro`` import: ``repro`` is dropped from ``sys.modules``
#: before each one. Prints one ``<module> <ok or error>`` line each.
FIRST_IMPORT_SCRIPT = """\
import importlib, pkgutil, sys, traceback
sys.path.insert(0, {src!r})
import repro
names = ['repro'] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, 'repro.')
    if info.ispkg or info.name.startswith({prefixes!r}))
for name in names:
    for loaded in [m for m in sys.modules
                   if m == 'repro' or m.startswith('repro.')]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except ImportError:
        print(name, traceback.format_exc().splitlines()[-1])
    else:
        print(name, 'ok')
"""


def test_each_package_imports_first_in_a_fresh_interpreter():
    # A module importable only after some other ``repro`` module fails
    # in whichever program imports it first. Every module of ``src``
    # takes over ten seconds this way, so the packages stand in for
    # the modules outside ``FIRST_IMPORT_MODULES``.
    code = FIRST_IMPORT_SCRIPT.format(src=str(SRC),
                                      prefixes=FIRST_IMPORT_MODULES)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    results = dict(line.split(" ", 1) for line in out.splitlines())
    assert {"repro", "repro.sim", "repro.obs.metrics",
            "repro.store.journal"} <= set(results)
    assert {name: result for name, result in results.items()
            if result != "ok"} == {}
