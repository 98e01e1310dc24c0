"""DC operating-point tests against hand-computable circuits."""

import numpy as np
import pytest

from repro.core.pulse import build_instance
from repro.faults import BridgingFault, ExternalOpen
from repro.montecarlo import sample_population
from repro.spice import (BatchCompiledCircuit, Circuit, MosfetParams,
                         operating_point)
from repro.spice.batch import solve_dc_batch
from repro.spice.dcop import solve_dc
from repro.spice.errors import NetlistError
from repro.spice.mna import CompiledCircuit


class TestLinear:
    def test_voltage_divider(self):
        c = Circuit()
        c.add_vsource("V1", "in", "0", 12.0)
        c.add_resistor("R1", "in", "mid", 3e3)
        c.add_resistor("R2", "mid", "0", 1e3)
        op = operating_point(c)
        assert op["mid"] == pytest.approx(3.0, rel=1e-6)

    def test_source_branch_current_reported(self):
        c = Circuit()
        c.add_vsource("V1", "in", "0", 10.0)
        c.add_resistor("R1", "in", "0", 2e3)
        op = operating_point(c)
        # MNA convention: branch current flows p -> n through the source,
        # so a sourcing supply shows a negative branch current.
        assert op["i(V1)"] == pytest.approx(-5e-3, rel=1e-6)

    def test_current_source_into_resistor(self):
        c = Circuit()
        c.add_isource("I1", "0", "out", 1e-3)  # pushes 1 mA into out
        c.add_resistor("R1", "out", "0", 1e3)
        op = operating_point(c)
        assert op["out"] == pytest.approx(1.0, rel=1e-6)

    def test_two_sources_superposition(self):
        c = Circuit()
        c.add_vsource("V1", "a", "0", 2.0)
        c.add_vsource("V2", "b", "0", 4.0)
        c.add_resistor("R1", "a", "x", 1e3)
        c.add_resistor("R2", "b", "x", 1e3)
        c.add_resistor("R3", "x", "0", 1e3)
        op = operating_point(c)
        assert op["x"] == pytest.approx(2.0, rel=1e-6)

    def test_floating_node_pulled_by_gmin(self):
        c = Circuit()
        c.add_vsource("V1", "a", "0", 1.0)
        c.add_resistor("R1", "a", "b", 1e3)
        c.add_capacitor("C1", "b", "c", 1e-12)  # c floats at DC
        op = operating_point(c)
        assert abs(op["c"]) < 1.0  # finite thanks to gmin

    def test_empty_circuit_raises(self):
        with pytest.raises(NetlistError):
            operating_point(Circuit())


class TestCmosInverterDc:
    @pytest.fixture()
    def inverter(self):
        def build(vin):
            pn = MosfetParams(kp=120e-6, vt=0.5, lam=0.05)
            pp = MosfetParams(kp=40e-6, vt=0.55, lam=0.05)
            c = Circuit()
            c.add_vsource("VDD", "vdd", "0", 2.5)
            c.add_vsource("VIN", "a", "0", vin)
            c.add_nmos("MN", "y", "a", "0", "0", 1e-6, 0.25e-6, pn)
            c.add_pmos("MP", "y", "a", "vdd", "vdd", 3e-6, 0.25e-6, pp)
            return c
        return build

    def test_output_high_for_low_input(self, inverter):
        op = operating_point(inverter(0.0))
        assert op["y"] == pytest.approx(2.5, abs=1e-3)

    def test_output_low_for_high_input(self, inverter):
        op = operating_point(inverter(2.5))
        assert op["y"] == pytest.approx(0.0, abs=1e-3)

    def test_transfer_is_monotone_decreasing(self, inverter):
        outs = [operating_point(inverter(v))["y"]
                for v in [0.0, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5]]
        assert all(b <= a + 1e-6 for a, b in zip(outs, outs[1:]))

    def test_switching_region_near_midpoint(self, inverter):
        mid = operating_point(inverter(1.25))["y"]
        assert 0.05 < mid < 2.45  # neither rail: both devices on


class TestNmosStack:
    def test_resistor_loaded_nmos_pulldown(self):
        """Triode pull-down against a 10k load: output near ground."""
        c = Circuit()
        p = MosfetParams(kp=120e-6, vt=0.5, lam=0.0)
        c.add_vsource("VDD", "vdd", "0", 2.5)
        c.add_vsource("VG", "g", "0", 2.5)
        c.add_resistor("RL", "vdd", "d", 10e3)
        c.add_nmos("M1", "d", "g", "0", "0", 2e-6, 0.25e-6, p)
        op = operating_point(c)
        assert op["d"] < 0.25

    def test_off_device_output_at_rail(self):
        c = Circuit()
        p = MosfetParams(kp=120e-6, vt=0.5, lam=0.0)
        c.add_vsource("VDD", "vdd", "0", 2.5)
        c.add_vsource("VG", "g", "0", 0.0)
        c.add_resistor("RL", "vdd", "d", 10e3)
        c.add_nmos("M1", "d", "g", "0", "0", 2e-6, 0.25e-6, p)
        op = operating_point(c)
        assert op["d"] == pytest.approx(2.5, abs=1e-3)



def _monte_carlo_paths():
    return [build_instance(sample=s)
            for s in sample_population(8, base_seed=2)]


def _open_paths():
    return [build_instance(fault=ExternalOpen(2, 4e3))]


def _bridged_paths():
    return [build_instance(fault=BridgingFault(2, r)) for r in (1e3, 8e3)]


class TestLockstepMatchesScalarDc:
    """The two Newton implementations agree on DC: each row of a
    lockstep ``solve_dc_batch`` equals the scalar ``solve_dc`` of its
    circuit.  ``bridging_critical_resistance`` compares batched rows
    against ``operating_point``'s scalar solve."""

    @pytest.mark.parametrize("input_level", [0, 1])
    @pytest.mark.parametrize("paths", [
        _monte_carlo_paths, _open_paths, _bridged_paths],
        ids=["monte_carlo", "external_open", "bridging"])
    def test_rows_match_scalar(self, paths, input_level):
        paths = paths()
        for path in paths:
            path.set_input(path.tech.vdd if input_level else 0.0)
        batch = BatchCompiledCircuit([path.circuit for path in paths])
        rows = solve_dc_batch(batch)
        for path, row in zip(paths, rows):
            compiled = CompiledCircuit(path.circuit)
            x = solve_dc(compiled)
            assert compiled.node_order == batch.node_order
            assert np.abs(row[:batch.n_nodes]
                          - x[:compiled.n_nodes]).max() <= 1e-9
