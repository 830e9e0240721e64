"""Seeded mutations of the real tree must fail the gate.

The acceptance contract for the interprocedural engine is adversarial:
re-introduce exactly the bug classes the rules exist for — an
unmetered crypto call reached transitively from a metered layer, and a
secret flowing through a helper into a trace attribute — into a copy
of ``src/repro`` and assert the exit code flips. CI runs this file, so
a rules regression that silently stops seeing real code (not just
fixture trees) cannot land.
"""

import pathlib
import shutil
import textwrap

from repro.cli import main

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def copy_tree(tmp_path):
    target = tmp_path / "repro"
    shutil.copytree(SRC, target,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return target


def test_unmetered_crypto_call_fails_the_gate(tmp_path, capsys):
    tree = copy_tree(tmp_path)
    (tree / "helpers_sneaky.py").write_text(textwrap.dedent("""
        from repro.crypto.sha1 import sha1

        def quick_digest(data):
            return sha1(data)
        """))
    session = tree / "drm" / "session.py"
    session.write_text(session.read_text() + textwrap.dedent("""

        from repro.helpers_sneaky import quick_digest

        def _sneaky_checksum(payload):
            return quick_digest(payload)
        """))
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "REP202" in out
    assert "uncovered path" in out
    assert "repro.helpers_sneaky.quick_digest" in out


def test_secret_to_span_leak_fails_the_gate(tmp_path, capsys):
    tree = copy_tree(tmp_path)
    ri = tree / "sim" / "ri.py"
    ri.write_text(ri.read_text() + textwrap.dedent("""

        def _debug_fmt(value):
            return "cek=%s" % value

        def _debug_announce(tracer, session):
            tracer.event("debug", cek=_debug_fmt(session.kcek))
        """))
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "REP801" in out
    assert "kcek" in out


def test_leaked_grant_fails_the_gate(tmp_path, capsys):
    # The regression fixture for the two true positives this PR fixed
    # (ri.serve and queueing.job): re-introduce the unprotected
    # Release and the gate must close again.
    tree = copy_tree(tmp_path)
    (tree / "sim" / "hot_loop.py").write_text(textwrap.dedent("""
        from .kernel import Acquire, Release, Wait

        def burst(server, ticks):
            grant = yield Acquire(server)
            yield Wait(ticks)
            yield Release(server)
        """))
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "REP901" in out


def test_unmutated_copy_stays_clean(tmp_path):
    copy_tree(tmp_path)
    assert main(["lint", str(tmp_path)]) == 0
