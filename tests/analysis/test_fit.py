"""Scaling-law fitting: exact recovery on synthetic curves, AIC selection."""

import math

import pytest

from repro.analysis import fit, fit_polylog, fit_power_law, fit_scaling


class TestPowerLaw:
    def test_exact_recovery(self):
        xs = [8, 16, 32, 64, 128]
        ys = [3.0 * x**1.5 for x in xs]
        model = fit_power_law(xs, ys)
        assert model["exponent"] == pytest.approx(1.5, abs=1e-9)
        assert model["coefficient"] == pytest.approx(3.0, rel=1e-9)
        assert model["r2_log"] == pytest.approx(1.0)

    def test_flat_curve_has_zero_exponent(self):
        model = fit_power_law([8, 16, 32], [7.0, 7.0, 7.0])
        assert model["exponent"] == pytest.approx(0.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1, 2])
        with pytest.raises(ValueError):
            fit_power_law([1, 2, -3], [1, 2, 3])
        with pytest.raises(ValueError):
            fit_power_law([1, 2, 3], [1, 2])


class TestPolylog:
    def test_exact_recovery_of_log2_model(self):
        xs = [8, 16, 32, 64, 128, 256]
        ys = [10.0 + 5.0 * math.log2(x) ** 2 for x in xs]
        models = {m["k"]: m for m in fit_polylog(xs, ys, max_k=3)}
        assert models[2]["D"] == pytest.approx(10.0, abs=1e-6)
        assert models[2]["c"] == pytest.approx(5.0, abs=1e-9)
        assert models[2]["rss"] == pytest.approx(0.0, abs=1e-12)

    def test_aic_selects_the_generating_model(self):
        xs = [8, 16, 32, 64, 128, 256, 512]
        for k_true in (1, 2, 3):
            ys = [4.0 + 2.0 * math.log2(x) ** k_true for x in xs]
            best = fit_scaling(xs, ys, max_k=3)["best"]
            assert best.get("k") == k_true, f"k={k_true} not selected"

    def test_constant_data_selects_constant(self):
        best = fit_scaling([8, 16, 32, 64], [5.0, 5.0, 5.0, 5.0])["best"]
        assert best["model"] == "constant"

    def test_power_law_data_selects_power_law(self):
        xs = [8, 16, 32, 64, 128, 256]
        ys = [0.5 * x**1.7 for x in xs]
        best = fit_scaling(xs, ys, max_k=3)["best"]
        assert best["model"] == "power_law"

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_polylog([1, 2, 3], [1, 2, 3])  # needs x > 1
        with pytest.raises(ValueError):
            fit_polylog([2, 3, 4], [1, 2, 3], max_k=-1)


class TestFitOverReports:
    def _fabricated(self):
        from repro.core.faults import FaultConfig
        from repro.runner import RunReport, Scenario

        reports = []
        for algorithm, exponent in (("decay", 1.0), ("fastbc", 0.5)):
            for n in (16, 32, 64, 128):
                for seed in range(3):
                    scenario = Scenario(
                        algorithm=algorithm,
                        topology="path",
                        topology_params={"n": n},
                        faults=FaultConfig.receiver(0.3),
                        seed=seed,
                    )
                    reports.append(
                        RunReport(
                            scenario=scenario.to_dict(),
                            algorithm=algorithm,
                            success=True,
                            rounds=int(10 * n**exponent),
                            informed=n,
                            total=n,
                            network_n=n,
                            network_name=f"path-{n}",
                            cache_key=scenario.cache_key(),
                        )
                    )
        return reports

    def test_fit_recovers_per_group_exponents(self):
        report = fit(self._fabricated(), by=("algorithm",))
        by_name = {row["algorithm"]: row for row in report.rows}
        assert by_name["decay"]["exponent"] == pytest.approx(1.0, abs=0.01)
        assert by_name["fastbc"]["exponent"] == pytest.approx(0.5, abs=0.01)
        assert by_name["decay"]["points"] == 4
        assert report.kind == "fit"
        assert report.cache_key()  # canonical and addressable

    def test_too_few_points_reported_not_dropped(self):
        reports = [
            r for r in self._fabricated() if r.network_n in (16, 32)
        ]
        report = fit(reports, by=("algorithm",))
        for row in report.rows:
            assert row["points"] == 2
            assert row["exponent"] is None

    def test_x_cannot_be_a_group_dimension(self):
        with pytest.raises(ValueError):
            fit(self._fabricated(), by=("n",), x="n")
