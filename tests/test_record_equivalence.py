"""THROWAWAY (deleted with the mirrors): the recorder reproduces every
hand-written model stream, modulo the ``step``/``edge`` annotations."""

from dataclasses import replace

import pytest

from repro.analysis.model.record import NO_CHECKPOINTS, record_program
from repro.sched import fig5_schedule, get_scheduler
from repro.sched.fig5 import _make_program_ft
from tests.test_model_parity import CONFIGS, SCHEDULERS


def _strip(stream):
    out = []
    for op in stream:
        op = replace(op, step=0)
        if hasattr(op, "edge"):
            op = replace(op, edge=None)
        out.append(op)
    return out


def _recorded(spec, shape, bits, kill=None):
    sched = get_scheduler(spec)
    return record_program(
        lambda grid, inputs, measure: sched.rank_program(
            tuple(shape), tuple(bits), grid, inputs, measure=measure
        ),
        shape, bits, scheduler=spec, kill=kill,
    )


def _recorded_ft(shape, bits, kill=None):
    n = len(shape)
    return record_program(
        lambda grid, inputs, measure: _make_program_ft(
            fig5_schedule(n), grid, inputs, n, measure, NO_CHECKPOINTS, None
        ),
        shape, bits, scheduler="fig5", kill=kill,
    )


def _same(recorded, mirror):
    assert recorded.num_ranks == mirror.num_ranks
    assert recorded.kill == mirror.kill
    for got, want in zip(recorded.streams, mirror.streams):
        assert _strip(got) == _strip(want)
    return recorded.num_ranks


COUNT = {"streams": 0}


@pytest.mark.parametrize("spec", SCHEDULERS)
@pytest.mark.parametrize("shape,bits", CONFIGS)
def test_plain_programs(spec, shape, bits):
    mirror = get_scheduler(spec).symbolic_ops(shape, bits)
    COUNT["streams"] += _same(_recorded(spec, shape, bits), mirror)


@pytest.mark.parametrize("shape,bits", CONFIGS)
def test_ft_program_and_full_kill_sweep(shape, bits):
    sched = get_scheduler("fig5")
    clean = sched.symbolic_ops(shape, bits, detection_round=True)
    COUNT["streams"] += _same(_recorded_ft(shape, bits), clean)
    for rank, stream in enumerate(clean.streams):
        for op_index in range(len(stream) + 1):
            kill = (rank, op_index)
            mirror = sched.symbolic_ops(shape, bits, detection_round=True, kill=kill)
            COUNT["streams"] += _same(_recorded_ft(shape, bits, kill), mirror)


def test_zz_report_stream_count():
    print(f"\nrecorder == mirror on {COUNT['streams']} streams")
    assert COUNT["streams"] > 0
