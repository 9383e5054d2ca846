"""The rank-program recorder: what it logs, what it answers receives
with, and that it never touches data."""

import tracemalloc

import numpy as np

from repro.analysis.model import MAlloc, MBarrier, MRecv, MSend, record_program
from repro.cluster.network import Control
from repro.cluster.runtime import RECV_TIMEOUT
from repro.sched import get_scheduler


def _heartbeat(grid, inputs, measure):
    """Rank 1 beats once; rank 0 waits for it with a timeout."""

    def program(env):
        if env.rank == 1:
            yield env.send(0, Control("hb"), 7)
        else:
            beat = yield env.recv(1, 7, timeout=1.0)
            if beat is RECV_TIMEOUT:
                env.alloc("peer-declared-dead", 1)
        yield env.barrier()
        return {}

    return program


def _record(kill=None):
    return record_program(_heartbeat, (4,), (1,), scheduler="toy", kill=kill)


class TestTimeoutReceives:
    def test_delivered_heartbeat_is_not_a_timeout(self):
        for kill in (None, (1, 1), (1, 2)):
            rank0 = _record(kill).streams[0]
            assert [type(op) for op in rank0] == [MRecv, MBarrier], kill
            assert rank0[0].timeout

    def test_unmatched_timeout_receive_maps_to_recv_timeout(self):
        # Killed before its send: the survivor's receive has no matching
        # send in the truncated stream, so the program sees RECV_TIMEOUT
        # and takes its fallback branch.
        prog = _record(kill=(1, 0))
        assert prog.streams[1] == ()
        assert prog.kill == (1, 0)
        assert [type(op) for op in prog.streams[0]] == [MRecv, MAlloc, MBarrier]

    def test_survivors_of_a_mid_round_death_disagree(self):
        # FT program, p=4: rank 1 dies after two of its three heartbeats.
        # Only the rank whose heartbeat never left adopts rank 1's work.
        sched = get_scheduler("fig5")
        clean = sched.symbolic_ops((4, 4, 4), (1, 1, 0), detection_round=True)
        first_hb = next(
            i for i, op in enumerate(clean.streams[1]) if isinstance(op, MSend)
        )
        prog = sched.symbolic_ops(
            (4, 4, 4), (1, 1, 0), detection_round=True, kill=(1, first_hb + 2)
        )
        beaten = {op.dst for op in prog.streams[1] if isinstance(op, MSend)}
        assert len(beaten) == 2
        for rank in (0, 2, 3):
            adopted = any(
                isinstance(op, MAlloc) and op.key[0] == 1
                for op in prog.streams[rank]
            )
            assert adopted == (rank not in beaten)


class TestPayloads:
    def test_control_payloads_count_zero_elements(self):
        send = _record().streams[1][0]
        assert isinstance(send, MSend)
        assert (send.elements, send.edge) == (0, None)

    def test_data_sends_carry_size_and_node(self):
        prog = get_scheduler("fig5").symbolic_ops((8, 6, 4), (1, 1, 0))
        data = [op for s in prog.streams for op in s if isinstance(op, MSend)]
        assert data
        for op in data:
            assert op.elements > 0 and op.edge is not None
        # step is the op's index in its rank's stream.
        for stream in prog.streams:
            assert [op.step for op in stream] == list(range(len(stream)))


class TestNoData:
    SHAPE = (19, 18, 17, 16, 16, 16)
    BITS = (1, 1, 1, 1, 0, 0)

    def test_shape_only_inputs_and_measure_are_zero_stride(self):
        seen = {}

        def build(grid, inputs, measure):
            seen["block"] = inputs[0].data
            seen["reduced"] = measure.reduce_dense(inputs[0].data, (0, 5))
            return get_scheduler("fig5").rank_program(
                self.SHAPE, self.BITS, grid, inputs, measure=measure
            )

        record_program(build, self.SHAPE, self.BITS, scheduler="fig5")
        assert seen["block"].shape == (9, 9, 8, 8, 16, 16)
        assert set(seen["block"].strides) == {0}
        assert seen["reduced"].shape == (9, 8, 8, 16)
        assert set(seen["reduced"].strides) == {0}

    def test_recording_the_sweep_shape_allocates_no_arrays(self):
        # One rank's dense input block alone would be 1.5M float64s
        # (12 MB); both recordings together -- streams included -- must
        # stay well below even that.
        block_bytes = 8 * int(np.prod(self.SHAPE)) // 16
        tracemalloc.start()
        try:
            for spec in ("fig5", "shuffle"):
                get_scheduler(spec).symbolic_ops(self.SHAPE, self.BITS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block_bytes // 4, peak
