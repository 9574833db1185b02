"""Tests for the machine description."""

import pytest

from repro.ir.instructions import Opcode
from repro.runtime.machine import CostModel, MachineConfig, PrefetchMode


class TestMachineConfig:
    def test_defaults_model_the_testbed(self):
        machine = MachineConfig()
        assert machine.cores == 6
        assert machine.signal_latency == 110
        assert machine.prefetched_signal_latency == 4
        assert machine.word_transfer_cycles == 110
        assert machine.smt

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            MachineConfig(cores=0)

    def test_latency_ordering_enforced(self):
        with pytest.raises(ValueError):
            MachineConfig(signal_latency=2, prefetched_signal_latency=4)

    def test_with_cores_copy(self):
        base = MachineConfig(cores=6)
        small = base.with_cores(2)
        assert small.cores == 2 and base.cores == 6
        assert small.signal_latency == base.signal_latency

    def test_with_prefetch_copy(self):
        base = MachineConfig()
        ideal = base.with_prefetch(PrefetchMode.IDEAL)
        assert ideal.prefetch_mode is PrefetchMode.IDEAL
        assert base.prefetch_mode is PrefetchMode.HELIX

    def test_no_smt_disables_prefetching(self):
        machine = MachineConfig(smt=False, prefetch_mode=PrefetchMode.HELIX)
        assert machine.effective_prefetch_mode is PrefetchMode.NONE


class TestCostModel:
    def test_every_opcode_priced(self):
        model = CostModel()
        for opcode in Opcode:
            assert model.cycles(opcode) > 0

    def test_float_surcharge_on_arithmetic(self):
        model = CostModel()
        assert model.cycles(Opcode.ADD, is_float=True) > model.cycles(Opcode.ADD)
        assert model.cycles(Opcode.MUL, is_float=True) > model.cycles(Opcode.MUL)

    def test_no_float_surcharge_on_moves(self):
        model = CostModel()
        assert model.cycles(Opcode.MOV, is_float=True) == model.cycles(Opcode.MOV)

    def test_division_expensive(self):
        model = CostModel()
        assert model.cycles(Opcode.DIV) > model.cycles(Opcode.MUL)
