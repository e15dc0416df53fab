"""Runtime verification layer: invariants, shadow execution, diagnostics.

The invariant checkers must (a) accept every report a correct engine
produces — fuzzed here over random devices, rates, policies, and seeds —
and (b) reject any single-field corruption of such a report with
field-level evidence.  The randomized mutation fuzz drives (b): take a
known-good report, break one field at random, and assert the checker
names it.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import numpy as np
import pytest

from repro.analysis.metrics import latency_percentiles
from repro.baselines import AdaptiveTimeout, AlwaysOn, FixedTimeout
from repro.device import PRESETS
from repro.fleet import make_router, run_fleet
from repro.runtime import (
    BatchedQDPM,
    InvariantViolation,
    RolloutSpec,
    SweepRunner,
    TraceSpec,
    check_fleet_report,
    check_seed_run,
    check_sim_report,
    compare_reports,
    merge_verification_blocks,
    run_chunk,
    shadow_indices,
    shadow_verify_chunks,
    simulate_trace,
)
from repro.runtime.sweep import LEARNING_CROSSOVER
from repro.sim import DPMSimulator
from repro.sim.stats import RunTotals, compile_report
from repro.workload import ConstantRate, Exponential

DEVICES = ("mobile_hdd", "wlan", "sa1100", "sensor_radio")


def _sim_report(device_name: str, rate: float, seed: int, policy=None):
    device = PRESETS[device_name]()
    trace = TraceSpec("exp", Exponential(rate), 400.0).realize(seed)
    policy = policy if policy is not None else FixedTimeout()
    return DPMSimulator(device, policy, service_time=0.3).run(trace), device


# --------------------------------------------------------------------- #
# sim-report invariants
# --------------------------------------------------------------------- #


class TestCheckSimReport:
    @pytest.mark.parametrize("device_name", DEVICES)
    def test_correct_reports_pass(self, device_name):
        rng = np.random.default_rng(hash(device_name) % 2**32)
        for _ in range(5):
            rate = float(rng.uniform(0.02, 0.3))
            seed = int(rng.integers(0, 10_000))
            policy = [AlwaysOn(), FixedTimeout(),
                      AdaptiveTimeout(initial_timeout=1.0)][
                          int(rng.integers(0, 3))]
            report, device = _sim_report(device_name, rate, seed, policy)
            check_sim_report(report, device=device, seed=seed)

    @pytest.mark.parametrize("field,value,invariant_hint", [
        ("total_energy", float("nan"), "total_energy"),
        ("total_energy", -5.0, "total_energy"),
        ("mean_power", float("inf"), "mean_power"),
        ("n_requests", -3, "n_requests"),
        ("n_requests", 2**63, "n_requests"),
        ("p95_latency", -1.0, "latency"),
        ("max_latency", float("nan"), "latency"),
        ("n_wrong_shutdowns", 10**9, "n_wrong_shutdowns"),
    ])
    def test_single_field_corruption_rejected(self, field, value,
                                              invariant_hint):
        report, device = _sim_report("mobile_hdd", 0.1, 7)
        bad = dataclasses.replace(report, **{field: value})
        with pytest.raises(InvariantViolation) as err:
            check_sim_report(bad, device=device)
        assert any(invariant_hint in str(d["field"]) for d in err.value.details)

    def test_percentile_ladder_must_be_monotone(self):
        report, device = _sim_report("mobile_hdd", 0.1, 7)
        if report.p50_latency == 0.0:
            pytest.skip("degenerate trace: no latencies recorded")
        bad = dataclasses.replace(report, p50_latency=report.p99_latency * 2,
                                  latencies=())
        with pytest.raises(InvariantViolation):
            check_sim_report(bad, device=device)

    def test_residency_must_partition_horizon(self):
        report, device = _sim_report("mobile_hdd", 0.1, 7)
        residency = dict(report.state_residency)
        label = next(iter(residency))
        residency[label] += 17.0
        bad = dataclasses.replace(report, state_residency=residency)
        with pytest.raises(InvariantViolation) as err:
            check_sim_report(bad, device=device)
        assert any("residency" in str(d["field"]) for d in err.value.details)

    def test_energy_conservation_against_device_model(self):
        report, device = _sim_report("mobile_hdd", 0.1, 7)
        bad = dataclasses.replace(
            report, total_energy=report.total_energy * 2.0,
            mean_power=report.mean_power * 2.0,
        )
        with pytest.raises(InvariantViolation):
            check_sim_report(bad, device=device)

    def test_randomized_mutation_fuzz(self):
        # any single numeric corruption of a valid report must be caught
        rng = np.random.default_rng(1234)
        numeric_fields = ("duration", "total_energy", "mean_power",
                          "mean_latency", "p50_latency", "p95_latency",
                          "p99_latency", "max_latency", "mean_idle_length")
        poisons = (float("nan"), float("inf"), -float("inf"), -1e9)
        for trial in range(20):
            seed = int(rng.integers(0, 10_000))
            report, device = _sim_report("wlan", 0.08, seed)
            field = numeric_fields[int(rng.integers(0, len(numeric_fields)))]
            poison = poisons[int(rng.integers(0, len(poisons)))]
            bad = dataclasses.replace(report, **{field: poison})
            with pytest.raises(InvariantViolation):
                check_sim_report(bad, device=device)

    def test_violation_carries_structured_evidence(self):
        report, device = _sim_report("mobile_hdd", 0.1, 3)
        bad = dataclasses.replace(report, total_energy=float("nan"))
        with pytest.raises(InvariantViolation) as err:
            check_sim_report(bad, device=device, spec_key="abc123", seed=3)
        exc = err.value
        assert exc.spec_key == "abc123"
        assert exc.seed == 3
        assert all({"field", "expected", "got"} <= set(d) for d in exc.details)


# --------------------------------------------------------------------- #
# fleet-report invariants
# --------------------------------------------------------------------- #


def _fleet_report(seed: int = 5, n_devices: int = 3):
    device = PRESETS["mobile_hdd"]()
    trace = TraceSpec("exp", Exponential(0.4), 300.0).realize(seed)
    report = run_fleet(
        device, FixedTimeout(), trace, make_router("round_robin"),
        n_devices, service_time=0.3, route_seed=seed,
    )
    return report, len(trace.arrival_times)


class TestCheckFleetReport:
    def test_correct_reports_pass(self):
        for seed in (1, 2, 9):
            report, n_arrivals = _fleet_report(seed)
            check_fleet_report(
                dataclasses.replace(report, n_offered=n_arrivals))

    def test_request_accounting_must_balance(self):
        report, _ = _fleet_report()
        bad = dataclasses.replace(report, n_requests=report.n_requests + 1)
        with pytest.raises(InvariantViolation) as err:
            check_fleet_report(bad)
        assert any("requests_per_device" in str(d["field"])
                   for d in err.value.details)

    def test_dispatched_plus_dropped_must_cover_trace(self):
        report, n_arrivals = _fleet_report()
        with pytest.raises(InvariantViolation) as err:
            check_fleet_report(
                dataclasses.replace(report, n_offered=n_arrivals + 5))
        assert any("n_dropped" in str(d["field"]) for d in err.value.details)

    def test_availability_bounded(self):
        report, _ = _fleet_report()
        bad = dataclasses.replace(report, availability=1.5)
        with pytest.raises(InvariantViolation):
            check_fleet_report(bad)

    def test_load_imbalance_at_least_one(self):
        # load_imbalance is derived; guard against a buggy derivation by
        # overriding the property on a throwaway subclass
        report, _ = _fleet_report()

        class Skewed(type(report)):
            @property
            def load_imbalance(self):
                return 0.3

        bad = Skewed(**{f.name: getattr(report, f.name)
                        for f in dataclasses.fields(report)})
        with pytest.raises(InvariantViolation):
            check_fleet_report(bad)

    def test_shed_conservation_must_balance(self):
        """dispatched + dropped + shed == offered, enforced from the
        report's own n_offered."""
        report, n_arrivals = _fleet_report()
        assert report.n_offered == n_arrivals
        check_fleet_report(report)
        bad = dataclasses.replace(report, n_shed=3)
        with pytest.raises(InvariantViolation) as err:
            check_fleet_report(bad)
        assert any("n_shed" in str(d["field"]) for d in err.value.details)

    def test_shed_requests_count_toward_expected(self):
        """A report that sheds is conserved against n_offered: shifting
        landed requests into n_shed keeps the balance only if n_requests
        shrinks to match."""
        report, n_arrivals = _fleet_report()
        shifted = dataclasses.replace(
            report, n_shed=4, n_requests=report.n_requests - 4)
        # conservation holds, but now requests_per_device disagrees
        with pytest.raises(InvariantViolation) as err:
            check_fleet_report(
                dataclasses.replace(shifted, n_offered=n_arrivals))
        assert all("n_shed" not in str(d["field"])
                   for d in err.value.details)

    def test_goodput_cannot_exceed_throughput(self):
        report, n_arrivals = _fleet_report()
        bad = dataclasses.replace(
            report, n_requests=report.n_requests, goodput=1.5)
        with pytest.raises(InvariantViolation):
            check_fleet_report(bad)
        # goodput above the dispatched fraction is a violation even in [0, 1]
        dropped = dataclasses.replace(
            report, n_requests=report.n_requests - 10, n_dropped=10,
            goodput=1.0,
            requests_per_device=report.requests_per_device,
        )
        with pytest.raises(InvariantViolation) as err:
            check_fleet_report(dropped)
        assert any("goodput" in str(d["field"]) for d in err.value.details)

    def test_budget_shed_bounded_by_total_shed(self):
        report, _ = _fleet_report()
        bad = dataclasses.replace(
            report, n_shed=1, n_budget_shed=2,
            n_requests=report.n_requests - 1)
        with pytest.raises(InvariantViolation) as err:
            check_fleet_report(bad)
        assert any("n_budget_shed" in str(d["field"])
                   for d in err.value.details)

    def test_slo_attainment_bounded(self):
        report, _ = _fleet_report()
        for poison in (-0.1, 1.5, float("nan")):
            bad = dataclasses.replace(report, slo_attainment=poison)
            with pytest.raises(InvariantViolation):
                check_fleet_report(bad)

    def test_negative_overload_counters_rejected(self):
        report, _ = _fleet_report()
        for field in ("n_shed", "n_budget_shed", "n_breaker_trips"):
            bad = dataclasses.replace(report, **{field: -1})
            with pytest.raises(InvariantViolation):
                check_fleet_report(bad)

    def test_report_without_offered_fails_the_check(self):
        """n_offered == 0 on a report that dispatched requests breaks
        the conservation law: no report is exempt from it."""
        report, _ = _fleet_report()
        unoffered = dataclasses.replace(report, n_offered=0)
        with pytest.raises(InvariantViolation) as err:
            check_fleet_report(unoffered)
        assert any("n_offered" in str(d["field"]) for d in err.value.details)
        check_fleet_report(
            dataclasses.replace(unoffered, n_offered=report.n_offered))


# --------------------------------------------------------------------- #
# slotted seed-run invariants
# --------------------------------------------------------------------- #


class TestCheckSeedRun:
    def _runs(self):
        spec = RolloutSpec(schedule=ConstantRate(0.15), n_slots=400,
                           record_every=100)
        return spec, run_chunk(spec, [0, 1])

    def test_correct_runs_pass(self):
        spec, runs = self._runs()
        for run in runs:
            check_seed_run(run, spec=spec)

    def test_saving_ratio_cannot_exceed_one(self):
        spec, runs = self._runs()
        bad = dataclasses.replace(runs[0], saving_ratio=1.2)
        with pytest.raises(InvariantViolation):
            check_seed_run(bad, spec=spec)

    def test_request_conservation(self):
        spec, runs = self._runs()
        totals = dataclasses.replace(
            runs[0].totals, completions=runs[0].totals.arrivals + 10,
        )
        bad = dataclasses.replace(runs[0], totals=totals)
        with pytest.raises(InvariantViolation) as err:
            check_seed_run(bad, spec=spec)
        assert any("arrivals" in str(d["field"]) for d in err.value.details)

    def test_snapshots_must_follow_the_spec(self):
        spec, runs = self._runs()
        snap = dataclasses.replace(spec, snapshot_seeds=(0,))
        lead = run_chunk(snap, [0])[0]
        check_seed_run(lead, spec=snap)
        for bad, want in ((runs[0], snap), (lead, spec),
                          (dataclasses.replace(lead,
                                               snapshots=lead.snapshots[1:]),
                           snap)):
            with pytest.raises(InvariantViolation) as err:
                check_seed_run(bad, spec=want)
            assert "snapshots" in err.value.details[0]["field"]
        # the shadow compare names a missing snapshot matrix too
        assert compare_reports(runs[0], lead, rtol=0.0, atol=0.0)[-1] == {
            "field": "snapshots", "expected": "ndarray", "got": "NoneType"}

    def test_adaptation_log_must_follow_the_spec(self, mb_spec):
        spec, runs = self._runs()
        model_based = run_chunk(mb_spec, [0])[0]
        check_seed_run(model_based, spec=mb_spec)
        for bad, want in ((runs[0], dataclasses.replace(spec, model_based=
                                                        mb_spec.model_based)),
                          (dataclasses.replace(model_based, adaptation=None),
                           mb_spec)):
            with pytest.raises(InvariantViolation) as err:
                check_seed_run(bad, spec=want)
            assert err.value.details[0]["field"] == "adaptation present"

    def test_horizon_must_match_spec(self):
        spec, runs = self._runs()
        totals = dataclasses.replace(runs[0].totals, slots=999)
        bad = dataclasses.replace(runs[0], totals=totals)
        with pytest.raises(InvariantViolation):
            check_seed_run(bad, spec=spec)


# --------------------------------------------------------------------- #
# shadow sampling + comparison
# --------------------------------------------------------------------- #


class TestShadowIndices:
    def test_deterministic_for_key(self):
        a = shadow_indices(40, 0.25, "deadbeefdeadbeef")
        b = shadow_indices(40, 0.25, "deadbeefdeadbeef")
        assert a == b
        assert len(a) == 10
        assert all(0 <= i < 40 for i in a)

    def test_positive_fraction_verifies_at_least_one(self):
        assert len(shadow_indices(3, 0.01, "ab")) == 1

    def test_full_fraction_verifies_all(self):
        assert shadow_indices(5, 1.0, "ab") == [0, 1, 2, 3, 4]

    def test_zero_fraction_verifies_none(self):
        assert shadow_indices(5, 0.0, "ab") == []

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            shadow_indices(5, 1.5, "ab")


def _block(n_chunks, verified, reference, divergences=()):
    return {
        "fraction": 0.5, "n_chunks": n_chunks,
        "verified_chunks": list(verified), "n_verified": len(verified),
        "reference": reference, "n_divergences": len(divergences),
        "divergences": list(divergences),
    }


class TestMergeVerificationBlocks:
    def test_sums_counts_and_joins_references(self):
        merged = merge_verification_blocks([
            {"verification": _block(4, [0, 2], "scalar A")},
            {"verification": _block(2, [1], "scalar B",
                                    [{"chunk": 1, "field": "x"}])},
        ])
        assert merged["n_chunks"] == 6
        assert merged["n_verified"] == 3
        assert merged["verified_chunks"] == [0, 2, 1]
        assert merged["reference"] == "scalar A + scalar B"
        assert merged["n_divergences"] == 1

    def test_duplicate_references_collapse(self):
        merged = merge_verification_blocks([
            {"verification": _block(1, [0], "scalar A")},
            {"verification": _block(1, [0], "scalar A")},
            {"verification": _block(1, [0], "scalar B + scalar A")},
        ])
        assert merged["reference"] == "scalar A + scalar B"

    def test_empty_or_missing_blocks_merge_to_none(self):
        assert merge_verification_blocks([]) is None
        assert merge_verification_blocks([None, {}, {"other": 1}]) is None


class TestCompareReports:
    def test_identical_reports_have_no_divergence(self):
        report, _ = _sim_report("mobile_hdd", 0.1, 7)
        assert compare_reports(report, report) == []

    def test_perturbed_field_is_named(self):
        report, _ = _sim_report("mobile_hdd", 0.1, 7)
        other = dataclasses.replace(report,
                                    total_energy=report.total_energy + 1.0)
        divergences = compare_reports(other, report)
        assert [d["field"] for d in divergences] == ["total_energy"]

    def test_bit_exact_mode_catches_one_ulp(self):
        report, _ = _sim_report("mobile_hdd", 0.1, 7)
        nudged = dataclasses.replace(
            report, total_energy=np.nextafter(report.total_energy, np.inf),
        )
        assert compare_reports(nudged, report) == []  # within shadow rtol
        assert compare_reports(nudged, report, rtol=0.0, atol=0.0)

    def test_type_mismatch_reported(self):
        report, _ = _sim_report("mobile_hdd", 0.1, 7)
        divergences = compare_reports(object(), report)
        assert divergences[0]["field"] == "__class__"


@dataclasses.dataclass(frozen=True)
class _Toy:
    value: float


class TestShadowVerifyChunks:
    def _tasks(self):
        tasks = [("cell-a", [0, 1]), ("cell-b", [2, 3])]
        results = [[_Toy(1.0), _Toy(2.0)], [_Toy(3.0), _Toy(4.0)]]
        return tasks, results

    def test_matching_reference_returns_block(self):
        tasks, results = self._tasks()
        block = shadow_verify_chunks(
            tasks, results, 1.0, "ff00", lambda name, seeds: results[
                0 if name == "cell-a" else 1],
            "identity",
            labels_of=lambda t: [{"seed": s} for s in tasks[t][1]],
        )
        assert block["n_verified"] == 2
        assert block["n_divergences"] == 0

    def test_divergence_raises_with_seed_evidence(self, tmp_path):
        tasks, results = self._tasks()
        with pytest.raises(InvariantViolation) as err:
            shadow_verify_chunks(
                tasks, results, 1.0, "ff00",
                lambda name, seeds: [_Toy(99.0), _Toy(99.0)],
                "identity",
                labels_of=lambda t: [{"seed": s} for s in tasks[t][1]],
                diagnostics_dir=tmp_path,
            )
        assert err.value.invariant == "shadow_divergence"
        assert err.value.details[0]["seed"] in (0, 1)
        bundles = list(tmp_path.glob("repro_diag_*.json"))
        assert len(bundles) == 1
        payload = json.loads(bundles[0].read_text())
        assert payload["kind"] == "shadow_divergence"
        assert payload["details"]

    def test_snapshot_of_wrong_replica_is_caught(self, monkeypatch):
        """A batched engine that snapshots replica ``i + 1`` diverges
        from the scalar stack's snapshots, field ``snapshots``."""
        spec = RolloutSpec(schedule=ConstantRate(0.15), n_slots=400,
                           record_every=100, snapshot_seeds=(0,))
        seeds = list(range(LEARNING_CROSSOVER))
        runner = SweepRunner(batch_size=len(seeds), verify_fraction=1.0)
        clean = runner.run_many(spec, seeds)
        assert clean.execution["verification"]["n_divergences"] == 0
        greedy = BatchedQDPM.greedy_policy
        monkeypatch.setattr(
            BatchedQDPM, "greedy_policy",
            lambda self, i=0, prefer_visited=True: greedy(self, i + 1,
                                                          prefer_visited))
        with pytest.raises(InvariantViolation) as err:
            runner.run_many(spec, seeds)
        assert err.value.invariant == "shadow_divergence"
        assert [d["field"].split("[")[0] for d in err.value.details] == [
            "snapshots"]


# --------------------------------------------------------------------- #
# direct simulate_trace callers + empty-latency guards
# --------------------------------------------------------------------- #


class TestEventsimVerifyHook:
    def test_simulate_trace_verify_passes_on_correct_run(self):
        device = PRESETS["mobile_hdd"]()
        trace = TraceSpec("exp", Exponential(0.1), 300.0).realize(5)
        report = simulate_trace(device, FixedTimeout(), trace,
                                service_time=0.3)
        check_sim_report(report, device=device)
        assert report.n_requests >= 0


class TestEmptyLatencyGuards:
    def test_empty_stream_yields_zero_sentinels(self):
        assert latency_percentiles([]) == (0.0, 0.0, 0.0)

    def test_non_finite_stream_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            latency_percentiles([0.1, float("nan"), 0.3])

    def test_compile_report_empty_trace_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compile_report(2.0, RunTotals(
                duration=100.0, total_energy=120.0, latencies=[],
                idle_lengths=[], n_shutdowns=0, n_wrong_shutdowns=0,
                state_residency={"active": 100.0}, n_requests=0,
            ))
        assert report.n_requests == 0
        assert report.mean_latency == 0.0
        assert report.p99_latency == 0.0
        assert np.isfinite(report.max_latency)

    def test_empty_report_satisfies_invariants(self):
        report = compile_report(2.0, RunTotals(
            duration=100.0, total_energy=200.0, latencies=[],
            idle_lengths=[], n_shutdowns=0, n_wrong_shutdowns=0,
            state_residency={"active": 100.0}, n_requests=0,
        ))
        check_sim_report(report)
