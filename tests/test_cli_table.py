"""The CLI's experiment table: which flag sets which config field.

``cli._COMMANDS`` declares, per command, the run function, the default
config, the ``--quick`` preset and the flag -> config-field map.  These
tests pin that map independently of the table (so it cannot drift
silently), run every (command, flag) pair through ``cli.main`` with the
run function swapped for a fake that captures the config, and check that
every pair outside the table exits with an error — for a single command,
for ``sweep`` (the union of fig1/fig2/variation) and as notes for ``all``.
"""

import dataclasses
from types import SimpleNamespace

import pytest

import repro.cli as cli

_SWEEP_BLOCK = {
    "--seeds": "sweep.n_seeds",
    "--batch": "sweep.batch_size",
    "--jobs": "sweep.n_jobs",
    "--verify": "sweep.verify_fraction",
    "--diagnostics": "sweep.diagnostics_dir",
}
_EVENT_SIM = {
    "--seeds": "n_traces",
    "--jobs": "n_jobs",
    "--verify": "verify_fraction",
    "--diagnostics": "diagnostics_dir",
}

#: command -> {flag: the config field it sets}
FIELDS = {
    "fig1": _SWEEP_BLOCK,
    "fig2": _SWEEP_BLOCK,
    "variation": _SWEEP_BLOCK,
    "grid": {flag: _SWEEP_BLOCK[flag] for flag in ("--seeds", "--batch",
                                                    "--jobs")},
    "overhead": {"--batch": "batch_size"},
    "policies": {"--jobs": "n_jobs"},
    "sim-sweep": _EVENT_SIM,
    "fleet-sweep": {
        **_EVENT_SIM,
        "--devices": "fleet_sizes",
        "--router": "routers",
        "--mtbf": "mtbf",
        "--mttr": "mttr",
        "--max-retries": "max_retries",
        "--brownout-severity": "brownout_severity",
        "--slo": "slo",
        "--breaker": "breaker",
        "--retry-budget": "retry_budget",
        "--checkpoint": "checkpoint",
    },
}

#: flag -> (argv that passes it validly, the value its field must hold)
VALUES = {
    "--seeds": (["--seeds", "6"], 6),
    "--batch": (["--batch", "4"], 4),
    "--jobs": (["--jobs", "3"], 3),
    "--verify": (["--verify", "0.5"], 0.5),
    "--diagnostics": (["--diagnostics", "diag"], "diag"),
    "--devices": (["--devices", "16"], (16,)),
    "--router": (["--router", "jsq"], ("jsq",)),
    "--mtbf": (["--mtbf", "200"], 200.0),
    "--mttr": (["--mtbf", "200", "--mttr", "20"], 20.0),
    "--max-retries": (["--mtbf", "200", "--max-retries", "1"], 1),
    "--brownout-severity": (["--mtbf", "200", "--brownout-severity", "2.5"],
                            2.5),
    "--slo": (["--slo", "30"], 30.0),
    "--breaker": (["--breaker", "3"], 3),
    "--retry-budget": (["--retry-budget", "16"], 16.0),
    "--checkpoint": (["--checkpoint", "journal.ck"], "journal.ck"),
}

ACCEPTED = [(name, flag) for name, fields in FIELDS.items() for flag in fields]
REJECTED = [(name, flag) for name in FIELDS for flag in VALUES
            if flag not in FIELDS[name]]


def _field(config, path):
    for part in path.split("."):
        config = getattr(config, part)
    return config


def _capture(monkeypatch, name, execution=None):
    """Swap ``name``'s run function for one that records its config."""
    seen = []

    def fake_run(config):
        seen.append(config)
        return SimpleNamespace(render=lambda: "FAKE", execution=execution)

    monkeypatch.setitem(cli._COMMANDS, name,
                        dataclasses.replace(cli._COMMANDS[name], run=fake_run))
    return seen


def _forbid_running(monkeypatch):
    for name in list(cli._COMMANDS):
        monkeypatch.setitem(
            cli._COMMANDS, name,
            lambda quick, name=name, **kw: pytest.fail(f"{name} ran"),
        )


@pytest.fixture(autouse=True)
def _in_tmp(monkeypatch, tmp_path):
    # --checkpoint / --diagnostics values are relative paths
    monkeypatch.chdir(tmp_path)


class TestTable:
    def test_table_declares_exactly_the_pinned_pairs(self):
        table = {name: {cli._flag(dest) for dest in command.flags}
                 for name, command in cli._COMMANDS.items()}
        assert table == {name: set(fields) for name, fields in FIELDS.items()}

    def test_every_flag_has_a_sample_value(self):
        assert {cli._flag(dest) for dest in cli._FLAGS} == set(VALUES)

    @pytest.mark.parametrize("name,flag", ACCEPTED)
    def test_flag_lands_in_its_config_field(self, monkeypatch, name, flag):
        seen = _capture(monkeypatch, name)
        argv, expected = VALUES[flag]
        assert cli.main([name, *argv]) == 0
        (config,) = seen
        assert _field(config, FIELDS[name][flag]) == expected

    @pytest.mark.parametrize("name,flag", REJECTED)
    def test_flag_outside_the_table_exits(self, monkeypatch, capsys, name,
                                          flag):
        _forbid_running(monkeypatch)
        with pytest.raises(SystemExit):
            cli.main([name, *VALUES[flag][0]])
        assert f"is not supported for {name!r}" in capsys.readouterr().err


class TestPresetAndOutput:
    def test_no_flags_runs_the_default_config(self, monkeypatch):
        seen = _capture(monkeypatch, "fig1")
        assert cli.main(["fig1"]) == 0
        assert seen == [cli.Fig1Config()]

    def test_quick_preset_then_flags(self, monkeypatch):
        seen = _capture(monkeypatch, "sim-sweep")
        assert cli.main(["sim-sweep", "--quick", "--seeds", "6"]) == 0
        (config,) = seen
        assert config.duration == 2_000.0  # the --quick preset
        assert config.n_traces == 6        # the flag wins over the preset

    def test_verification_line_follows_the_result(self, monkeypatch, capsys):
        block = {"n_verified": 2, "n_chunks": 4, "reference": "scalar",
                 "n_divergences": 0}
        _capture(monkeypatch, "grid", execution={"verification": block})
        assert cli.main(["grid"]) == 0
        out = capsys.readouterr().out
        assert ("FAKE\nverification: 2/4 chunks shadow-verified against "
                "scalar — 0 divergence(s)\n") in out

    def test_no_verification_block_no_line(self, monkeypatch, capsys):
        _capture(monkeypatch, "overhead", execution={})
        assert cli.main(["overhead"]) == 0
        assert "verification" not in capsys.readouterr().out


class TestSweepAndAll:
    def _record(self, monkeypatch, names):
        calls = []
        for name in names:
            def fake(quick, name=name, **kwargs):
                calls.append((name, quick, kwargs))
                return f"ran-{name}"
            monkeypatch.setitem(cli._COMMANDS, name, fake)
        return calls

    def test_sweep_rejects_flags_its_commands_do_not_take(self, monkeypatch):
        calls = self._record(monkeypatch, ("fig1", "fig2", "variation"))
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--devices", "4", "--router", "jsq",
                      "--slo", "5"])
        for argv in (["--devices", "4"], ["--router", "jsq"], ["--slo", "5"],
                     ["--checkpoint", "ck"]):
            with pytest.raises(SystemExit):
                cli.main(["sweep", *argv])
        assert calls == []

    def test_sweep_forwards_seeds_and_its_flags(self, monkeypatch, capsys):
        calls = self._record(monkeypatch, ("fig1", "fig2", "variation"))
        assert cli.main(["sweep", "--quick", "--batch", "2",
                         "--verify", "0.5"]) == 0
        assert calls == [
            (name, True, {"n_seeds": 8, "batch": 2, "verify": 0.5})
            for name in ("fig1", "fig2", "variation")
        ]
        out = capsys.readouterr().out
        assert "=== fig2 (x8 seeds) ===\nran-fig2\n" in out
        assert "note:" not in out

    def test_all_forwards_accepted_flags_and_notes_the_rest(self, monkeypatch,
                                                            capsys):
        calls = self._record(monkeypatch, list(cli._COMMANDS))
        assert cli.main(["all", "--seeds", "2", "--devices", "4"]) == 0
        forwarded = {name: kwargs for name, _, kwargs in calls}
        assert forwarded["fleet-sweep"] == {"n_seeds": 2, "devices": 4}
        assert forwarded["sim-sweep"] == {"n_seeds": 2}
        assert forwarded["overhead"] == {}
        out = capsys.readouterr().out
        assert "note: --devices has no effect on 'fig1'" in out
        assert "note: --seeds has no effect on 'overhead'" in out
        assert "note: --seeds has no effect on 'fleet-sweep'" not in out
