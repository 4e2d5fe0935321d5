"""DVFS operating-point model."""

import pytest

from repro.errors import ConfigError
from repro.power import DVFSModel


class TestAnchoring:
    def test_nominal_point(self):
        model = DVFSModel()
        point = model.operating_point(0.8)
        assert point.frequency_hz == pytest.approx(1e9)
        assert point.throughput_factor == pytest.approx(1.0)
        assert point.energy_efficiency_tops_w == pytest.approx(13.43)
        assert point.dynamic_power_factor == pytest.approx(1.0)

    def test_fmax_monotone_in_voltage(self):
        model = DVFSModel()
        freqs = [model.max_frequency_hz(v) for v in (0.5, 0.6, 0.7, 0.8, 0.9)]
        assert freqs == sorted(freqs)

    def test_below_threshold_rejected(self):
        model = DVFSModel(v_threshold=0.35)
        with pytest.raises(ConfigError):
            model.max_frequency_hz(0.3)


class TestTradeoffs:
    def test_lower_voltage_more_efficient(self):
        model = DVFSModel()
        assert (model.operating_point(0.6).energy_efficiency_tops_w
                > model.operating_point(0.8).energy_efficiency_tops_w)

    def test_higher_voltage_faster_but_less_efficient(self):
        model = DVFSModel()
        high = model.operating_point(1.0)
        assert high.throughput_factor > 1.0
        assert high.energy_efficiency_tops_w < 13.43

    def test_underclocking_hurts_efficiency_via_leakage(self):
        # same voltage, half the clock: dynamic energy/op constant but
        # leakage energy/op doubles -> slightly worse TOPS/W
        model = DVFSModel(leakage_fraction=0.2)
        full = model.operating_point(0.8)
        half = model.operating_point(0.8, frequency_hz=0.5e9)
        assert half.energy_efficiency_tops_w < full.energy_efficiency_tops_w

    def test_overclocking_beyond_fmax_rejected(self):
        model = DVFSModel()
        with pytest.raises(ConfigError):
            model.operating_point(0.8, frequency_hz=1.5e9)

    def test_sweep_and_best_point(self):
        model = DVFSModel()
        voltages = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        points = model.sweep(voltages)
        assert len(points) == 6
        best = model.best_efficiency_point(voltages)
        assert best.voltage_v == 0.5  # lowest voltage wins on TOPS/W

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            DVFSModel().best_efficiency_point([])


class TestValidation:
    def test_constructor_ranges(self):
        with pytest.raises(ConfigError):
            DVFSModel(v_threshold=0.0)
        with pytest.raises(ConfigError):
            DVFSModel(v_threshold=0.9)
        with pytest.raises(ConfigError):
            DVFSModel(alpha=0.5)
        with pytest.raises(ConfigError):
            DVFSModel(leakage_fraction=1.0)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ConfigError):
            DVFSModel().operating_point(0.8, frequency_hz=0)

    @pytest.mark.parametrize("voltage", [float("nan"), float("inf")])
    def test_non_finite_voltage_rejected(self, voltage):
        with pytest.raises(
            ConfigError, match=rf"voltage must be finite \(got {voltage} V\)"
        ):
            DVFSModel().operating_point(voltage)

    def test_nan_frequency_rejected(self):
        with pytest.raises(ConfigError, match="frequency must be positive"):
            DVFSModel().operating_point(0.8, frequency_hz=float("nan"))
