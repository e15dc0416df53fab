"""CLI entry point tests."""

import pytest

import repro.cli as cli


class TestArgs:
    def test_unknown_experiment_exits(self):
        with pytest.raises(SystemExit):
            cli.main(["warp-drive"])

    def test_no_args_exits(self):
        with pytest.raises(SystemExit):
            cli.main([])


class TestDispatch:
    def test_single_experiment(self, monkeypatch, capsys):
        monkeypatch.setitem(cli._COMMANDS, "fig1", lambda quick: "FAKE-FIG1")
        assert cli.main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "=== fig1 ===" in out
        assert "FAKE-FIG1" in out

    def test_all_runs_everything(self, monkeypatch, capsys):
        calls = []
        for name in list(cli._COMMANDS):
            monkeypatch.setitem(
                cli._COMMANDS, name,
                lambda quick, name=name: calls.append(name) or f"ran-{name}",
            )
        assert cli.main(["all"]) == 0
        assert sorted(calls) == sorted(cli._COMMANDS)

    def test_quick_flag_forwarded(self, monkeypatch):
        seen = {}
        monkeypatch.setitem(
            cli._COMMANDS, "fig1", lambda quick: seen.setdefault("q", quick) or ""
        )
        cli.main(["fig1", "--quick"])
        assert seen["q"] is True

    def test_grid_dispatches_like_any_command(self, monkeypatch, capsys):
        monkeypatch.setitem(cli._COMMANDS, "grid", lambda quick: "FAKE-GRID")
        assert cli.main(["grid"]) == 0
        out = capsys.readouterr().out
        assert "=== grid ===" in out
        assert "FAKE-GRID" in out

    def test_jobs_flag_forwarded(self, monkeypatch):
        seen = {}

        def fake(quick, n_seeds=None, batch=None, jobs=None):
            seen.update(n_seeds=n_seeds, batch=batch, jobs=jobs)
            return ""

        monkeypatch.setitem(cli._COMMANDS, "grid", fake)
        cli.main(["grid", "--seeds", "4", "--jobs", "2"])
        assert seen == {"n_seeds": 4, "batch": None, "jobs": 2}

    def test_jobs_flag_rejected_for_unsharded_experiment(self):
        with pytest.raises(SystemExit):
            cli.main(["overhead", "--jobs", "2"])

    def test_sim_sweep_takes_seeds_and_jobs_but_not_batch(self, monkeypatch):
        seen = {}

        def fake(quick, n_seeds=None, batch=None, jobs=None):
            seen.update(n_seeds=n_seeds, batch=batch, jobs=jobs)
            return ""

        monkeypatch.setitem(cli._COMMANDS, "sim-sweep", fake)
        cli.main(["sim-sweep", "--seeds", "6", "--jobs", "2"])
        assert seen == {"n_seeds": 6, "batch": None, "jobs": 2}
        with pytest.raises(SystemExit):
            cli.main(["sim-sweep", "--batch", "4"])

    def test_bad_jobs_value_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["fig1", "--jobs", "0"])

    def test_fleet_sweep_dispatches_like_any_command(self, monkeypatch, capsys):
        monkeypatch.setitem(cli._COMMANDS, "fleet-sweep", lambda quick: "FAKE-FLEET")
        assert cli.main(["fleet-sweep"]) == 0
        out = capsys.readouterr().out
        assert "=== fleet-sweep ===" in out
        assert "FAKE-FLEET" in out

    def test_fleet_sweep_takes_all_its_flags(self, monkeypatch):
        seen = {}

        def fake(quick, n_seeds=None, batch=None, jobs=None,
                 devices=None, router=None):
            seen.update(n_seeds=n_seeds, batch=batch, jobs=jobs,
                        devices=devices, router=router)
            return ""

        monkeypatch.setitem(cli._COMMANDS, "fleet-sweep", fake)
        cli.main(["fleet-sweep", "--seeds", "6", "--jobs", "2",
                  "--devices", "16", "--router", "power_aware"])
        assert seen == {"n_seeds": 6, "batch": None, "jobs": 2,
                        "devices": 16, "router": "power_aware"}
        with pytest.raises(SystemExit):
            cli.main(["fleet-sweep", "--batch", "4"])

    def test_fleet_flags_rejected_elsewhere(self):
        with pytest.raises(SystemExit):
            cli.main(["fig1", "--devices", "4"])
        with pytest.raises(SystemExit):
            cli.main(["sim-sweep", "--router", "jsq"])
        with pytest.raises(SystemExit):
            cli.main(["fleet-sweep", "--devices", "0"])
        with pytest.raises(SystemExit):
            cli.main(["fleet-sweep", "--router", "warp"])

    def test_fault_and_checkpoint_flags_forwarded(self, monkeypatch, tmp_path):
        seen = {}

        def fake(quick, n_seeds=None, batch=None, jobs=None, devices=None,
                 router=None, mtbf=None, mttr=None, max_retries=None,
                 checkpoint=None):
            seen.update(mtbf=mtbf, mttr=mttr, max_retries=max_retries,
                        checkpoint=checkpoint)
            return ""

        monkeypatch.setitem(cli._COMMANDS, "fleet-sweep", fake)
        ck = tmp_path / "journal.ck"
        cli.main(["fleet-sweep", "--mtbf", "200", "--mttr", "20",
                  "--max-retries", "5", "--checkpoint", str(ck)])
        assert seen == {"mtbf": 200.0, "mttr": 20.0, "max_retries": 5,
                        "checkpoint": str(ck)}

    def test_fault_flag_validation(self):
        with pytest.raises(SystemExit):
            cli.main(["fleet-sweep", "--mtbf", "0"])
        with pytest.raises(SystemExit):
            cli.main(["fleet-sweep", "--mttr", "10"])  # requires --mtbf
        with pytest.raises(SystemExit):
            cli.main(["fleet-sweep", "--max-retries", "2"])  # requires --mtbf
        with pytest.raises(SystemExit):
            cli.main(["fleet-sweep", "--resume"])  # requires --checkpoint
        with pytest.raises(SystemExit):
            cli.main(["fig1", "--mtbf", "100"])
        with pytest.raises(SystemExit):
            cli.main(["grid", "--checkpoint", "ck"])

    def test_overload_flags_forwarded(self, monkeypatch):
        seen = {}

        def fake(quick, n_seeds=None, batch=None, jobs=None, devices=None,
                 router=None, mtbf=None, mttr=None, max_retries=None,
                 brownout_severity=None, slo=None, breaker=None,
                 retry_budget=None, checkpoint=None):
            seen.update(mtbf=mtbf, brownout_severity=brownout_severity,
                        slo=slo, breaker=breaker, retry_budget=retry_budget)
            return ""

        monkeypatch.setitem(cli._COMMANDS, "fleet-sweep", fake)
        cli.main(["fleet-sweep", "--mtbf", "120", "--brownout-severity",
                  "2.5", "--slo", "30", "--breaker", "3",
                  "--retry-budget", "16"])
        assert seen == {"mtbf": 120.0, "brownout_severity": 2.5,
                        "slo": 30.0, "breaker": 3, "retry_budget": 16.0}

    def test_overload_flags_forwarded_independently(self, monkeypatch):
        """--slo / --breaker / --retry-budget do not require --mtbf;
        only flags the user passed reach the command."""
        seen = {}

        def fake(quick, **kwargs):
            seen.update(kwargs)
            return ""

        monkeypatch.setitem(cli._COMMANDS, "fleet-sweep", fake)
        cli.main(["fleet-sweep", "--slo", "10"])
        assert seen == {"slo": 10.0}

    @pytest.mark.parametrize("flags", [
        ["--mtbf", "nan"],
        ["--mtbf", "100", "--mttr", "nan"],
        ["--slo", "nan"],
        ["--mtbf", "100", "--brownout-severity", "nan"],
        ["--retry-budget", "nan"],
    ])
    def test_nan_settings_are_parser_errors(self, monkeypatch, flags):
        """NaN fails every range check at parse time: exit 2, and the
        sweep never starts."""
        ran = []
        monkeypatch.setitem(cli._COMMANDS, "fleet-sweep",
                            lambda quick, **kwargs: ran.append(kwargs) or "")
        with pytest.raises(SystemExit) as exc:
            cli.main(["fleet-sweep", *flags])
        assert exc.value.code == 2
        assert ran == []

    def test_overload_flag_validation(self):
        with pytest.raises(SystemExit):
            cli.main(["fleet-sweep", "--brownout-severity", "2"])  # needs --mtbf
        with pytest.raises(SystemExit):
            cli.main(["fleet-sweep", "--mtbf", "100",
                      "--brownout-severity", "0.5"])  # < 1
        with pytest.raises(SystemExit):
            cli.main(["fleet-sweep", "--slo", "0"])
        with pytest.raises(SystemExit):
            cli.main(["fleet-sweep", "--breaker", "0"])
        with pytest.raises(SystemExit):
            cli.main(["fleet-sweep", "--retry-budget", "-1"])
        with pytest.raises(SystemExit):
            cli.main(["fig1", "--slo", "5"])
        with pytest.raises(SystemExit):
            cli.main(["sim-sweep", "--breaker", "3"])
        with pytest.raises(SystemExit):
            cli.main(["grid", "--retry-budget", "8"])

    def test_fresh_run_truncates_stale_journal(self, monkeypatch, tmp_path):
        monkeypatch.setitem(
            cli._COMMANDS, "fleet-sweep", lambda quick, **kw: ""
        )
        ck = tmp_path / "journal.ck"
        ck.write_bytes(b"stale")
        cli.main(["fleet-sweep", "--checkpoint", str(ck)])
        assert not ck.exists()
        ck.write_bytes(b"keep")
        cli.main(["fleet-sweep", "--checkpoint", str(ck), "--resume"])
        assert ck.read_bytes() == b"keep"


class TestRealQuickRun:
    def test_overhead_quick_end_to_end(self, capsys):
        assert cli.main(["overhead", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "CLAIM-EFF" in out
        assert "LP/Qstep" in out
