"""Command-line interface."""

import json

import pytest

from repro.analysis import report
from repro.analysis.common import DEFAULT_SEED
from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_table1(capsys):
    code, out = run_cli(capsys, "table1")
    assert code == 0
    assert "all entries match the paper" in out


def test_figure6(capsys):
    code, out = run_cli(capsys, "figure6")
    assert code == 0
    assert "paper: 7730 ms" in out


def test_figure7(capsys):
    code, out = run_cli(capsys, "figure7")
    assert code == 0
    assert "paper: 12 ms" in out


def test_all(capsys):
    code, out = run_cli(capsys, "all")
    assert code == 0
    for marker in ("Table 1", "Figure 5", "Figure 6", "Figure 7",
                   "~600 ms"):
        assert marker in out


def test_run_default(capsys):
    code, out = run_cli(capsys, "run")
    assert code == 0
    assert "Ringtone" in out
    assert "SW/HW" in out


def test_run_custom_size(capsys):
    code, out = run_cli(capsys, "run", "--use-case", "custom",
                        "--size", "1024", "--accesses", "2")
    assert code == 0
    assert "1024 octets x 2 accesses" in out


def test_pareto(capsys):
    code, out = run_cli(capsys, "pareto", "--use-case", "music")
    assert code == 0
    assert "SW-only" in out
    assert "Pareto" in out
    # SW-only and the full set are always in the frontier column.
    lines = [line for line in out.splitlines() if "yes" in line]
    assert len(lines) >= 2
    assert "Marginal macro value: Music Player" in out


def test_battery(capsys):
    code, out = run_cli(capsys, "battery", "--capacity-mah", "1000")
    assert code == 0
    assert "1000 mAh" in out
    assert "workloads/charge" in out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_missing_command_exits():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("command", ["trace", "profile"])
def test_unknown_scenario_is_a_usage_error(capsys, command):
    code = main([command, "--scenario", "no-such-scenario"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown scenario 'no-such-scenario'" in err
    assert "registration" in err


def test_concurrency(capsys):
    code, out = run_cli(capsys, "concurrency", "--use-case", "music")
    assert code == 0
    assert "CPU freed" in out
    assert "offload concurrency" in out


def test_concurrency_overlap_flag(capsys):
    code, out = run_cli(capsys, "concurrency", "--overlap", "0.0")
    assert code == 0


@pytest.mark.slow
def test_resilience(capsys):
    code, out = run_cli(capsys, "resilience",
                        "--loss-rates", "0,0.2")
    assert code == 0
    assert "Registration retry overhead" in out
    for architecture in ("SW", "SW/HW", "HW"):
        assert architecture in out
    assert "E[attempts]" in out


def test_fleet(capsys):
    code, out = run_cli(capsys, "fleet", "--devices", "500",
                        "--workers", "2", "--rsa-bits", "512",
                        "--shard-size", "100", "--seed", "cli-fleet")
    assert code == 0
    assert "Fleet of 500 devices" in out
    assert "Rights Issuer load" in out
    for architecture in ("SW", "SW/HW", "HW"):
        assert architecture in out
    assert "p99 [ms]" in out
    assert "mean request rate" in out


def test_fleet_rejects_bad_config(capsys):
    code = main(["fleet", "--devices", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_durability(capsys):
    code, out = run_cli(capsys, "durability", "--rsa-bits", "512",
                        "--journal-lengths", "8,64",
                        "--seed", "cli-durability")
    assert code == 0
    assert "Write-ahead journal overhead per phase" in out
    assert "Power-loss recovery replay cost vs journal length" in out
    for architecture in ("SW", "SW/HW", "HW"):
        assert architecture in out
    assert "registration" in out and "access" in out


def test_durability_rejects_bad_lengths(capsys):
    code = main(["durability", "--journal-lengths", "8,soon"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_fleet_journaled_with_crashes(capsys):
    code, out = run_cli(capsys, "fleet", "--devices", "400",
                        "--rsa-bits", "512", "--shard-size", "100",
                        "--seed", "cli-fleet", "--journaled",
                        "--crash-rate", "0.1")
    assert code == 0
    assert "power-loss recoveries" in out
    assert "journal records replayed" in out


def test_fleet_rejects_crash_rate_without_journal(capsys):
    code = main(["fleet", "--devices", "400", "--crash-rate", "0.1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "journaled" in err


def test_selftest(capsys):
    code, out = run_cli(capsys, "selftest")
    assert code == 0
    assert "self-test PASSED" in out
    assert out.count("PASS") >= 7


@pytest.mark.slow
def test_report(capsys, tmp_path, monkeypatch, report_document):
    """The command writes what the library generates, at the seed asked
    for; the content itself is pinned by the report golden."""
    seeds = []

    def generate(seed):
        seeds.append(seed)
        return report_document

    monkeypatch.setattr(report, "generate", generate)
    path = str(tmp_path / "REPORT.md")
    code, out = run_cli(capsys, "report", "--output", path)
    assert code == 0
    assert seeds == [DEFAULT_SEED]
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == report_document.markdown
    assert "report written to %s" % path in out


def test_json_flag_on_artifact(capsys):
    code, out = run_cli(capsys, "table1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["artifact"] == "table1"
    assert data["result"]["matches_paper"] is True


def test_json_flag_on_run(capsys):
    code, out = run_cli(capsys, "run", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data["architectures"]) == {"SW", "SW/HW", "HW"}
    assert data["architectures"]["SW"]["kind"] == "cost-breakdown"


def test_fleet_kernel_mode(capsys):
    code, out = run_cli(capsys, "fleet", "--devices", "200",
                        "--rsa-bits", "512", "--shard-size", "100",
                        "--seed", "cli-fleet-kernel", "--window", "600",
                        "--kernel")
    assert code == 0
    assert "Shared RI under the event kernel" in out
    assert "1 signing unit, unbounded" in out


def test_saturation(capsys):
    code, out = run_cli(capsys, "saturation", "--requests", "150",
                        "--rhos", "0.3,0.7", "--seed", "cli-sat")
    assert code == 0
    assert "SW RI: nominal capacity" in out
    assert "HW RI: nominal capacity" in out
    assert "utilization" in out


def test_saturation_rejects_bad_rhos(capsys):
    code = main(["saturation", "--requests", "50", "--rhos", "0,-1"])
    capsys.readouterr()
    assert code == 2


def test_json_flag_on_saturation(capsys):
    code, out = run_cli(capsys, "saturation", "--requests", "100",
                        "--rhos", "0.4", "--seed", "cli-sat-json",
                        "--json")
    assert code == 0
    data = json.loads(out)
    curves = data["sweep"]["points"]
    assert set(curves) == {"SW", "SW/HW", "HW"}
    assert curves["SW"][0]["result"]["load"]["served"] == 100


def test_json_flag_on_fleet(capsys):
    code, out = run_cli(capsys, "fleet", "--devices", "200",
                        "--rsa-bits", "512", "--shard-size", "100",
                        "--seed", "cli-fleet-json", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["metrics"]["kind"] == "metrics-registry"
    assert data["result"]["metrics"]["counters"]["fleet.devices"] == 200


def test_overload(capsys):
    code, out = run_cli(capsys, "overload", "--jobs", "2")
    assert code == 0
    assert "none/naive" in out
    assert "token-bucket/backoff-jitter+deadline" in out
    assert "Spike severity ladder" in out
    assert "Architecture cross-check" in out


def test_json_flag_on_overload(capsys):
    code, out = run_cli(capsys, "overload", "--jobs", "2", "--json")
    assert code == 0
    data = json.loads(out)
    grid = data["sweep"]["grid"]
    assert "none/naive" in grid
    # The machine-readable headline: the unmitigated cell never
    # recovers while the mitigated reference does.
    assert grid["none/naive"]["recovery_bin"] is None
    assert grid["token-bucket/backoff-jitter+deadline"][
        "recovery_bin"] is not None


def test_trace_command_writes_chrome_and_metrics(capsys, tmp_path):
    trace_path = str(tmp_path / "t.trace.json")
    metrics_path = str(tmp_path / "t.metrics.json")
    code, out = run_cli(capsys, "trace", "--scenario", "registration",
                        "--seed", "cli-trace", "--rsa-bits", "512",
                        "--output", trace_path,
                        "--metrics", metrics_path)
    assert code == 0
    assert "Chrome trace written to" in out
    with open(trace_path) as handle:
        document = json.load(handle)
    assert document["otherData"]["kind"] == "repro-cycle-trace"
    assert any(entry["ph"] == "X"
               for entry in document["traceEvents"])
    with open(metrics_path) as handle:
        assert json.load(handle)["kind"] == "metrics-registry"


def test_trace_command_json_payload(capsys, tmp_path):
    code, out = run_cli(capsys, "trace", "--scenario", "consume",
                        "--seed", "cli-trace", "--rsa-bits", "512",
                        "--output", str(tmp_path / "c.trace.json"),
                        "--metrics", str(tmp_path / "c.metrics.json"),
                        "--json")
    assert code == 0
    data = json.loads(out)
    assert data["scenario"] == "consume"
    assert data["total_cycles"] > 0
    assert "consumption" in data["cycles_by_track"]


def test_run_trace_flag(capsys, tmp_path):
    trace_path = str(tmp_path / "run.trace.json")
    code, out = run_cli(capsys, "run", "--use-case", "ringtone",
                        "--trace", trace_path)
    assert code == 0
    assert "cycle trace" in out
    with open(trace_path) as handle:
        document = json.load(handle)
    assert document["otherData"]["kind"] == "repro-cycle-trace"


def test_trace_command_durable_scenario(capsys, tmp_path):
    trace_path = str(tmp_path / "durable.trace.json")
    code, out = run_cli(capsys, "trace", "--scenario", "durable",
                        "--rsa-bits", "512", "--seed", "cli-durability",
                        "--output", trace_path,
                        "--metrics", str(tmp_path / "d.metrics.json"))
    assert code == 0
    assert "durable scenario" in out
    with open(trace_path) as handle:
        document = json.load(handle)
    names = {entry["name"] for entry in document["traceEvents"]}
    assert "storage.transaction" in names
    assert "recovery.replay" in names


def test_trace_command_replays_a_modeled_scenario(capsys, tmp_path):
    trace_path = str(tmp_path / "ringtone.trace.json")
    code, out = run_cli(capsys, "trace", "--scenario", "ringtone",
                        "--seed", "cli-trace", "--arch", "HW",
                        "--output", trace_path,
                        "--metrics", str(tmp_path / "r.metrics.json"),
                        "--json")
    assert code == 0
    data = json.loads(out)
    assert data["scenario"] == "ringtone"
    assert data["rsa_bits"] is None
    assert "consumption" in data["cycles_by_track"]
    with open(trace_path) as handle:
        document = json.load(handle)
    assert document["otherData"]["total_cycles"] == data["total_cycles"]
    assert {entry["name"] for entry in document["traceEvents"]
            if entry.get("cat") == "structure"} >= {"ringtone"}


@pytest.mark.parametrize("scenario, rsa_bits", [("music", None),
                                                ("registration", 512)])
def test_profile_json_reports_the_key_size_the_scenario_ran_at(
        capsys, scenario, rsa_bits):
    # The modeled replays build their own calibration world, so
    # --rsa-bits changes nothing they print and is reported as null.
    code, out = run_cli(capsys, "profile", "--scenario", scenario,
                        "--rsa-bits", "512", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["scenario"] == scenario
    assert data["rsa_bits"] == rsa_bits


def test_fleet_metrics_flag(capsys, tmp_path):
    metrics_path = str(tmp_path / "fleet.metrics.json")
    code, out = run_cli(capsys, "fleet", "--devices", "200",
                        "--rsa-bits", "512", "--shard-size", "100",
                        "--seed", "cli-fleet", "--metrics", metrics_path)
    assert code == 0
    assert "merged fleet metrics written to" in out
    with open(metrics_path) as handle:
        data = json.load(handle)
    assert data["counters"]["fleet.devices"] == 200


def test_adversary(capsys):
    code, out = run_cli(capsys, "adversary", "--rsa-bits", "512",
                        "--seed", "cli-adversary")
    assert code == 0
    assert "zero-acceptance sweep" in out
    assert "REJECTED" in out and "ACCEPTED" not in out
    assert "plain retry vs forgery cut-off" in out
    assert "Outage degradation" in out


def test_adversary_json(capsys):
    code, out = run_cli(capsys, "adversary", "--rsa-bits", "512",
                        "--seed", "cli-adversary", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["sweep"]["outcomes"]) >= 10
    assert all(o["rejected"] for o in payload["sweep"]["outcomes"])
    assert payload["drains"][0]["breaker_attempts"] \
        < payload["drains"][0]["retry_attempts"]


def test_fleet_adversary_fraction(capsys):
    code, out = run_cli(capsys, "fleet", "--devices", "400",
                        "--rsa-bits", "512", "--shard-size", "100",
                        "--seed", "cli-fleet",
                        "--adversary-fraction", "0.3")
    assert code == 0
    assert "attacked devices" in out
    assert "cut off after 2 attempts" in out


def test_fleet_rejects_bad_adversary_fraction(capsys):
    code = main(["fleet", "--devices", "400",
                 "--adversary-fraction", "1.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err
