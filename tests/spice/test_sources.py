"""Stimulus waveform unit tests."""

import numpy as np
import pytest

from repro.spice import Dc, Pulse, Pwl, make_stimulus
from repro.spice.errors import NetlistError


class TestDc:
    def test_constant_value(self):
        src = Dc(2.5)
        assert src.value_at(0.0) == 2.5
        assert src.value_at(1e-3) == 2.5

    def test_vectorised(self):
        src = Dc(-1.0)
        values = src.values_at(np.array([0.0, 1.0, 2.0]))
        assert np.all(values == -1.0)

    def test_no_breakpoints(self):
        assert Dc(1.0).breakpoints(1.0) == []


class TestPulse:
    def test_baseline_before_delay(self):
        p = Pulse(0.0, 1.0, delay=1e-9, rise=1e-10, width=1e-9)
        assert p.value_at(0.0) == 0.0
        assert p.value_at(0.999e-9) == 0.0

    def test_full_amplitude_on_plateau(self):
        p = Pulse(0.0, 1.0, delay=1e-9, rise=1e-10, width=1e-9)
        assert p.value_at(1.5e-9) == pytest.approx(1.0)

    def test_midpoint_of_rise(self):
        p = Pulse(0.0, 2.0, delay=0.0, rise=1e-10, width=1e-9)
        assert p.value_at(0.5e-10) == pytest.approx(1.0)

    def test_midpoint_of_fall(self):
        p = Pulse(0.0, 2.0, delay=0.0, rise=1e-10, width=1e-9, fall=2e-10)
        t_mid_fall = 1e-10 + 1e-9 + 1e-10
        assert p.value_at(t_mid_fall) == pytest.approx(1.0)

    def test_returns_to_baseline(self):
        p = Pulse(0.5, 1.5, delay=0.0, rise=1e-10, width=1e-9)
        assert p.value_at(10e-9) == pytest.approx(0.5)

    def test_low_going_pulse(self):
        p = Pulse(1.8, 0.0, delay=0.0, rise=1e-10, width=1e-9)
        assert p.value_at(0.0) == pytest.approx(1.8)
        assert p.value_at(0.5e-9) == pytest.approx(0.0)

    def test_periodic_repeats(self):
        p = Pulse(0.0, 1.0, delay=0.0, rise=1e-10, width=1e-9, period=4e-9)
        assert p.value_at(0.5e-9) == pytest.approx(1.0)
        assert p.value_at(4.5e-9) == pytest.approx(1.0)
        assert p.value_at(3.9e-9) == pytest.approx(0.0)

    def test_breakpoints_cover_corners(self):
        p = Pulse(0.0, 1.0, delay=1e-9, rise=1e-10, width=1e-9, fall=2e-10)
        corners = p.breakpoints(5e-9)
        assert 1e-9 in corners
        assert pytest.approx(1.1e-9) in corners
        assert pytest.approx(2.1e-9) in corners
        assert pytest.approx(2.3e-9) in corners

    def test_rejects_nonpositive_rise(self):
        with pytest.raises(NetlistError):
            Pulse(0, 1, rise=0.0)

    def test_rejects_negative_width(self):
        with pytest.raises(NetlistError):
            Pulse(0, 1, width=-1e-9)

    def test_rejects_nonpositive_period(self):
        with pytest.raises(NetlistError):
            Pulse(0, 1, period=0.0)


class TestPulseTables:
    """The vectorised form, which fills the fixed grid's source tables,
    reads every time bit for bit as the scalar form, which the adaptive
    grid and the DC operating point read."""

    @staticmethod
    def _path_pulse(w_in):
        """The input pulse of the 7-gate path at width ``w_in``."""
        from repro.cells import build_path

        path = build_path()
        path.set_input_pulse(w_in)
        return path.circuit.element(path.input_source).stimulus

    @staticmethod
    def _assert_tables_match(pulse, times):
        table = pulse.values_at(times)
        scalar = np.array([pulse.value_at(t) for t in times.tolist()])
        mismatched = np.flatnonzero(table != scalar)
        assert not mismatched.size, (
            "{} of {} points differ, first at t = {!r}".format(
                mismatched.size, times.size, times[mismatched[0]]))

    @pytest.mark.parametrize("dt", [2e-12, 5e-12, 10e-12])
    def test_path_pulse_on_fixed_grids(self, dt):
        """The workloads' own stimulus (430 ps) on the fixed grids the
        benches run; the one-sum form differed at one point of these
        three grids."""
        from repro.spice.transient import _fixed_step_count

        n = _fixed_step_count(6e-9, dt)
        self._assert_tables_match(self._path_pulse(0.43e-9),
                                  np.linspace(0.0, n * dt, n + 1))

    @pytest.mark.parametrize("pulse", [
        Pulse(0.0, 1.8, delay=0.24e-9, rise=60e-12, width=370e-12),
        Pulse(1.8, 0.0, delay=0.1e-9, rise=35e-12, width=0.2e-9,
              fall=45e-12),
        Pulse(0.0, 1.0, delay=0.2e-9, rise=70e-12, width=330e-12,
              period=0.9e-9),
        Pulse(0.3, 1.2, delay=0.0, rise=0.1e-9, width=0.25e-9,
              fall=0.15e-9, period=0.7e-9)],
        ids=["one-shot", "low-going", "periodic", "periodic-asymmetric"])
    def test_dense_uniform_grid(self, pulse):
        self._assert_tables_match(pulse, np.linspace(0.0, 5e-9, 200001))


class TestPwl:
    def test_interpolates_between_points(self):
        p = Pwl([(0.0, 0.0), (1.0, 2.0)])
        assert p.value_at(0.5) == pytest.approx(1.0)

    def test_clamps_outside_range(self):
        p = Pwl([(1.0, 3.0), (2.0, 5.0)])
        assert p.value_at(0.0) == pytest.approx(3.0)
        assert p.value_at(10.0) == pytest.approx(5.0)

    def test_vectorised_matches_scalar(self):
        p = Pwl([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
        ts = np.linspace(0, 2, 9)
        vec = p.values_at(ts)
        scalar = [p.value_at(t) for t in ts]
        assert np.allclose(vec, scalar)

    def test_breakpoints_are_given_points(self):
        p = Pwl([(0.0, 0.0), (1.0, 1.0), (3.0, 0.0)])
        assert p.breakpoints(2.0) == [0.0, 1.0]

    def test_rejects_empty(self):
        with pytest.raises(NetlistError):
            Pwl([])

    def test_rejects_decreasing_times(self):
        with pytest.raises(NetlistError):
            Pwl([(1.0, 0.0), (0.5, 1.0)])


class TestMakeStimulus:
    def test_number_becomes_dc(self):
        src = make_stimulus(3.3)
        assert isinstance(src, Dc)
        assert src.value == 3.3

    def test_stimulus_passes_through(self):
        p = Pulse(0, 1)
        assert make_stimulus(p) is p

    def test_rejects_garbage(self):
        with pytest.raises(NetlistError):
            make_stimulus("not a stimulus")
