"""Per-rule fixture snippets: positive, negative, and suppressed.

Each case writes a small module into a fixture tree whose layout
mirrors the scopes the rules default to (``repro/drm``,
``repro/sim``, ``repro/crypto``), runs the engine over the tree, and
asserts exactly which rule ids fire.
"""

import textwrap

import pytest

from repro.lint import LintEngine
from repro.lint.dataflow import _METRICS_METHODS
from repro.lint.rules import RULE_CLASSES, Rule
from repro.obs.metrics import MetricsRegistry


def lint_tree(tmp_path, files):
    """Write ``{relpath: source}`` under tmp_path and lint the tree."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return LintEngine().run([str(tmp_path)])


def rule_ids(result):
    return sorted(finding.rule for finding in result.findings)


# -- REP2xx metering completeness --------------------------------------------

def test_rep201_flags_primitive_import_allows_types(tmp_path):
    result = lint_tree(tmp_path, {"repro/drm/m.py": """
        from ..crypto.sha1 import sha1
        from ..crypto.errors import SignatureError
        from ..crypto.kem import KemCiphertext
        def digest(data):
            return sha1(data)
        """})
    assert rule_ids(result) == ["REP201"]


def test_rep201_flags_function_level_import(tmp_path):
    result = lint_tree(tmp_path, {"repro/drm/m.py": """
        def strip(data):
            from ..crypto.padding import unpad
            return unpad(data)
        """})
    assert rule_ids(result) == ["REP201"]


def test_rep202_flags_transitive_escape(tmp_path):
    result = lint_tree(tmp_path, {
        "repro/helpers/digesting.py": """
            from repro.crypto.sha1 import sha1
            def quick_hash(data):
                return sha1(data)
            def harmless(data):
                return len(data)
            """,
        "repro/drm/m.py": """
            from ..helpers.digesting import quick_hash, harmless
            def fingerprint(data):
                return quick_hash(data)
            def size(data):
                return harmless(data)
            """,
    })
    # digesting.py is outside REP201's drm scope; the drm-side call to
    # quick_hash is the transitive escape, harmless() stays legal.
    assert rule_ids(result) == ["REP202"]


def test_rep202_allows_calls_through_the_provider(tmp_path):
    result = lint_tree(tmp_path, {
        "repro/core/meter.py": """
            from repro.crypto.sha1 import sha1
            def provider_sha1(data):
                return sha1(data)
            """,
        "repro/drm/m.py": """
            from ..core.meter import provider_sha1
            def digest(data):
                return provider_sha1(data)
            """,
    })
    assert rule_ids(result) == []


def test_rep202_proves_deep_chains_with_witness_path(tmp_path):
    # Three modules deep: the one-level summary heuristic of PR 3
    # could not see this; call-graph reachability must, and the
    # finding must carry the whole uncovered path as evidence.
    result = lint_tree(tmp_path, {
        "repro/helpers/inner.py": """
            from repro.crypto.sha1 import sha1
            def digest(data):
                return sha1(data)
            """,
        "repro/helpers/outer.py": """
            from .inner import digest
            def checksum(data):
                return digest(data)
            """,
        "repro/sim/user.py": """
            from repro.helpers.outer import checksum
            def process(data):
                return checksum(data)
            """,
    })
    findings = [f for f in result.findings if f.rule == "REP202"]
    assert len(findings) == 1
    assert "uncovered path" in findings[0].message
    assert "repro.helpers.outer.checksum" in findings[0].message
    assert "repro.helpers.inner.digest" in findings[0].message


# -- REP901 sim resource protocol --------------------------------------------

def test_rep901_flags_release_outside_finally(tmp_path):
    result = lint_tree(tmp_path, {"repro/sim/p.py": """
        def worker(kernel, server):
            grant = yield Acquire(server)
            yield Wait(5)
            yield Release(server)
        """})
    assert rule_ids(result) == ["REP901"]


def test_rep901_flags_acquire_with_no_release(tmp_path):
    result = lint_tree(tmp_path, {"repro/sim/p.py": """
        def worker(kernel, server):
            grant = yield Acquire(server)
            yield Wait(5)
        """})
    assert rule_ids(result) == ["REP901"]


def test_rep901_allows_release_in_finally(tmp_path):
    result = lint_tree(tmp_path, {"repro/sim/p.py": """
        def worker(kernel, server):
            grant = yield Acquire(server)
            if grant is REJECTED:
                return
            try:
                yield Wait(5)
            finally:
                yield Release(server)
        """})
    assert rule_ids(result) == []


def test_rep901_allows_immediate_release(tmp_path):
    # No suspension inside the critical section: nothing can raise
    # while the grant is held, so the plain Release is fine.
    result = lint_tree(tmp_path, {"repro/sim/p.py": """
        def touch(server):
            grant = yield Acquire(server)
            yield Release(server)
        """})
    assert rule_ids(result) == []


# -- REP801 secret taint / REP302 timing -------------------------------------

def test_rep801_flags_secret_in_fstring_and_exception(tmp_path):
    result = lint_tree(tmp_path, {"repro/drm/k.py": """
        def fail(kdev, reason):
            detail = f"kdev={kdev}"
            raise RuntimeError("bad key material %r" % kdev)
        """})
    assert rule_ids(result) == ["REP801", "REP801"]


def test_rep801_allows_metadata_and_public_names(tmp_path):
    result = lint_tree(tmp_path, {"repro/drm/k.py": """
        def describe(key, public_key, key_id):
            raise ValueError(
                "key of %d octets, id %s, modulus %d"
                % (len(key), key_id, public_key.modulus_octets))
        """})
    assert rule_ids(result) == []


def test_rep801_tracks_flow_through_helper_calls(tmp_path):
    result = lint_tree(tmp_path, {
        "repro/sim/fmt.py": """
            def shorten(value):
                return "v=%s" % value
            """,
        "repro/sim/leak.py": """
            from .fmt import shorten
            def announce(tracer, session):
                tracer.event("debug", key=shorten(session.kcek))
            """,
    })
    findings = [f for f in result.findings if f.rule == "REP801"]
    assert [f.rule for f in findings] == ["REP801"]
    assert "kcek" in findings[0].message


def test_rep801_reports_interprocedural_path_evidence(tmp_path):
    result = lint_tree(tmp_path, {
        "repro/obs/emit.py": """
            def record(logger, value):
                logger.info("value: %s" % value)
            """,
        "repro/drm/caller.py": """
            from repro.obs.emit import record
            def run(logger, ctx):
                record(logger, ctx.krek)
            """,
    })
    findings = [f for f in result.findings if f.rule == "REP801"]
    assert len(findings) == 1
    assert "repro.drm.caller.run -> repro.obs.emit.record" \
        in findings[0].message


def test_rep801_allows_stable_digest_redaction(tmp_path):
    result = lint_tree(tmp_path, {"repro/drm/k.py": """
        def key_fingerprint(material):
            return "fp"
        def fail(kdev):
            raise RuntimeError(
                "bad key %s" % key_fingerprint(kdev))
        """})
    assert rule_ids(result) == []


def test_rep801_metrics_sinks_are_registry_methods():
    # A sink name the registry does not define guards nothing and
    # flags calls that publish nothing.
    assert _METRICS_METHODS
    for name in _METRICS_METHODS:
        assert callable(getattr(MetricsRegistry, name, None)), name


def test_rep302_flags_bytes_compare_in_crypto(tmp_path):
    result = lint_tree(tmp_path, {"repro/crypto/c.py": """
        from .sha1 import sha1
        def verify(data, tag):
            return sha1(data) == tag
        """})
    assert rule_ids(result) == ["REP302"]


def test_rep302_allows_length_checks_and_constant_time_equal(tmp_path):
    result = lint_tree(tmp_path, {"repro/crypto/c.py": """
        def constant_time_equal(a, b):
            if len(a) != len(b):
                return False
            diff = 0
            for x, y in zip(a, b):
                diff |= x ^ y
            return diff == 0
        def shape_ok(blob):
            return len(blob) % 16 == 0 and blob[-1] != 0xBC
        """})
    assert rule_ids(result) == []


# -- REP403 error contract ---------------------------------------------------

def test_rep403_flags_builtin_raise_in_decode_path(tmp_path):
    result = lint_tree(tmp_path, {"repro/drm/w.py": """
        def decode_header(blob):
            if not blob:
                raise ValueError("empty header")
            return blob[0]
        def encode_header(value):
            raise TypeError("unencodable")
        """})
    # encode paths are free to raise TypeError; decode paths are not.
    assert rule_ids(result) == ["REP403"]


# -- suppressions ------------------------------------------------------------

def test_justified_suppression_silences_finding(tmp_path):
    result = lint_tree(tmp_path, {"repro/drm/m.py": """
        # repro: allow[REP201] -- legacy path, tracked in issue 42
        from ..crypto.sha1 import sha1
        """})
    assert rule_ids(result) == []
    assert len(result.suppressed) == 1


def test_unjustified_suppression_does_not_suppress(tmp_path):
    result = lint_tree(tmp_path, {"repro/drm/m.py": """
        # repro: allow[REP201]
        from ..crypto.sha1 import sha1
        """})
    # The finding survives AND the defective suppression is reported.
    assert rule_ids(result) == ["REP002", "REP201"]


def test_unknown_rule_suppression_is_reported(tmp_path):
    result = lint_tree(tmp_path, {"repro/drm/m.py": """
        x = 1  # repro: allow[REP999] -- no such rule
        """})
    assert rule_ids(result) == ["REP001"]


def test_docstring_mention_of_allow_syntax_is_not_a_suppression(tmp_path):
    result = lint_tree(tmp_path, {"repro/drm/m.py": '''
        """Docs: use # repro: allow[REP201] to suppress."""
        from ..crypto.sha1 import sha1
        '''})
    assert rule_ids(result) == ["REP201"]


# -- parse errors ------------------------------------------------------------

def test_unparseable_file_is_a_finding_not_a_crash(tmp_path):
    result = lint_tree(tmp_path, {"repro/drm/broken.py": """
        def half(:
        """})
    assert rule_ids(result) == ["REP003"]


# -- the registry ------------------------------------------------------------

def test_every_registered_rule_defines_its_own_check():
    # The base class only states the interface: a rule that forgot to
    # override it would raise on the first module it sees.
    with pytest.raises(NotImplementedError):
        Rule().check(None, None)
    assert all(cls.check is not Rule.check for cls in RULE_CLASSES)
