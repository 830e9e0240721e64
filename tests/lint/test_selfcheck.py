"""The gate itself: the committed tree is clean, regressions fail.

The acceptance contract for the analyzer is end-to-end: ``python -m
repro lint src/`` exits 0 on the committed tree, and a seeded
violation makes it exit nonzero — which is exactly what the CI lint job
relies on.
"""

import json
import pathlib
import textwrap

import pytest

from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture
def in_repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


def test_committed_tree_is_clean(in_repo_root, capsys):
    assert main(["lint", "src"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("clean: 0 new findings")


def test_committed_tree_is_clean_in_json(in_repo_root, capsys):
    assert main(["lint", "src", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["summary"]["clean"] is True
    assert document["findings"] == []


def test_seeded_regression_fails_the_gate(tmp_path, capsys):
    # A violation of an everywhere-scoped rule in a fresh file must
    # flip the exit code: this is the regression CI would catch.
    bad = tmp_path / "regression.py"
    bad.write_text(textwrap.dedent("""
        def fail(kdev):
            raise RuntimeError("bad key %r" % kdev)
        """))
    assert main(["lint", str(bad)]) == 1
    assert "REP801" in capsys.readouterr().out


def test_seeded_scoped_regression_fails_the_gate(tmp_path, capsys):
    # Scoped rules key off the module path, so a fixture tree that
    # mirrors the drm layout regresses exactly like real source.
    bad = tmp_path / "repro" / "drm" / "regression.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("from ..crypto.sha1 import sha1\n")
    assert main(["lint", str(tmp_path)]) == 1
    assert "REP201" in capsys.readouterr().out


def test_missing_path_is_a_usage_error(capsys):
    assert main(["lint", "/nonexistent/lint/path"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules_names_every_family(capsys):
    assert main(["lint", "--list-rules"]) == 0
    listed = [line.split()[0] for line in
              capsys.readouterr().out.splitlines()
              if line.startswith("REP")]
    # Only rules with evidence stay registered (docs/static-analysis.md):
    # a fixed real bug, or a bug class the seeded mutation gate proves.
    assert listed == ["REP201", "REP202", "REP302", "REP403", "REP801",
                      "REP901"]


def test_suppressions_in_committed_tree_are_justified(in_repo_root,
                                                      capsys):
    # The committed tree leans on inline allows (session jitter, KAT
    # comparisons); REP002 would fire if any lost its justification.
    assert main(["lint", "src", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["summary"]["suppressed"] >= 3
