"""Power-on known-answer self-tests."""

from repro.crypto import selftest


def test_all_self_tests_pass():
    report = selftest.run_self_tests()
    assert report.passed
    assert all(ok for _, ok in report.results)
    assert len(report.results) == len(selftest.SELF_TESTS)


def test_report_names_failures(monkeypatch):
    monkeypatch.setitem(selftest.SELF_TESTS, "sha1", lambda: False)
    report = selftest.run_self_tests()
    assert not report.passed
    assert [name for name, ok in report.results if not ok] == ["sha1"]


def test_exceptions_count_as_failures(monkeypatch):
    def boom():
        raise RuntimeError("corrupted table")
    monkeypatch.setitem(selftest.SELF_TESTS, "aes-encrypt", boom)
    report = selftest.run_self_tests()
    assert ("aes-encrypt", False) in report.results


def test_self_tests_are_fast():
    import time
    start = time.perf_counter()
    selftest.run_self_tests()
    assert time.perf_counter() - start < 0.5
