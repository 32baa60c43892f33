"""Send/receive handle state machines."""

from repro.common.units import KiB
from repro.sdr.handles import ChunkCount
from repro.sdr.qp import SdrRecvWr, SdrSendWr


class TestSendHandle:
    def test_packet_accounting(self, sdr_pair):
        p = sdr_pair
        size = 32 * KiB  # 8 packets at 4 KiB MTU
        mr = p.ctx_b.mr_reg(size)
        p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        sh = p.qp_a.send_post(SdrSendWr(length=size))
        p.sim.run()
        assert sh.packets_posted == 8
        assert sh.packets_injected == 8
        assert sh.poll()


class TestRecvHandle:
    def test_wait_all_chunks_fires_once_complete(self, sdr_pair):
        p = sdr_pair
        size = 16 * KiB
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        ev = rh.wait_all_chunks()
        assert not ev.triggered
        p.qp_a.send_post(SdrSendWr(length=size))
        p.sim.run(ev)
        assert rh.all_chunks_received()

    def test_wait_all_chunks_already_complete(self, sdr_pair):
        p = sdr_pair
        size = 8 * KiB
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        p.qp_a.send_post(SdrSendWr(length=size))
        p.sim.run(rh.wait_all_chunks())
        ev2 = rh.wait_all_chunks()  # memoised event, already fired
        assert ev2.triggered

    def test_wait_chunk_fires_per_update(self, sdr_pair):
        p = sdr_pair
        size = 24 * KiB  # 3 chunks of 8 KiB
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        updates = []

        def watcher():
            while not rh.all_chunks_received():
                yield rh.wait_chunk()
                updates.append(rh.bitmap().count())

        p.sim.process(watcher())
        p.qp_a.send_post(SdrSendWr(length=size))
        p.sim.run(rh.wait_all_chunks())
        p.sim.run()
        assert updates == [1, 2, 3]

    def test_chunk_count_fires_once_on_the_nth_update_of_its_handles(
        self, sdr_pair
    ):
        p = sdr_pair
        size = 24 * KiB  # 3 chunks of 8 KiB per message
        one, two = (
            p.qp_b.recv_post(SdrRecvWr(mr=p.ctx_b.mr_reg(size), length=size))
            for _ in range(2)
        )
        fired = []
        one.count = two.count = count = ChunkCount(
            4, lambda tag: fired.append((tag, one.bitmap().count(),
                                         two.bitmap().count())), "fourth"
        )
        for _ in range(2):
            p.qp_a.send_post(SdrSendWr(length=size))
        p.sim.run()
        assert fired == [("fourth", 3, 1)]
        assert count.left == -2  # the updates after it only count

    def test_chunk_goal_for_partial_tail(self, sdr_pair):
        p = sdr_pair
        size = 12 * KiB  # chunk0: 2 packets, chunk1 (tail): 1 packet
        mr = p.ctx_b.mr_reg(size)
        rh = p.qp_b.recv_post(SdrRecvWr(mr=mr, length=size))
        assert rh.nchunks == 2
        assert rh.npackets == 3
        assert list(rh._chunk_goal) == [2, 1]
        p.qp_a.send_post(SdrSendWr(length=size))
        p.sim.run(rh.wait_all_chunks())
        assert rh.bitmap().all_set()
