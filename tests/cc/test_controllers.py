"""Unit tests for the repro.cc rate controllers (pure state machines)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import (
    CC_ALGORITHMS,
    DcqcnController,
    StaticRateController,
    SwiftController,
    make_controller,
)
from repro.common.errors import ConfigError

GBPS = 1e9


class TestStatic:
    def test_default_is_unpaced(self):
        c = StaticRateController()
        assert c.rate_bps is None
        # Signals are accepted and ignored.
        c.on_rtt_sample(1.0)
        c.on_ecn_echo(5, 10)
        c.on_ack_progress()
        c.on_loss()
        assert c.rate_bps is None

    def test_fixed_rate_never_moves(self):
        c = StaticRateController(10 * GBPS)
        c.on_rtt_sample(1.0)
        c.on_loss()
        assert c.rate_bps == 10 * GBPS


class TestSwift:
    def make(self, **kw):
        kw.setdefault("line_rate_bps", 100 * GBPS)
        kw.setdefault("base_rtt", 1e-3)
        return SwiftController(**kw)

    def test_starts_at_line_rate(self):
        assert self.make().rate_bps == 100 * GBPS

    def test_additive_increase_below_target(self):
        c = self.make()
        c.rate_bps = 50 * GBPS
        c.on_rtt_sample(1e-3)  # below 1.5 RTT target
        assert c.rate_bps == 50 * GBPS + 0.02 * 100 * GBPS

    def test_increase_caps_at_line_rate(self):
        c = self.make()
        c.on_rtt_sample(1e-3)
        assert c.rate_bps == 100 * GBPS

    def test_multiplicative_decrease_scales_with_overshoot(self):
        c = self.make()
        c.on_rtt_sample(2e-3)  # target is 1.5e-3: mild overshoot
        mild = c.rate_bps
        c2 = self.make()
        c2.on_rtt_sample(20e-3)  # huge overshoot
        assert c2.rate_bps < mild < 100 * GBPS

    def test_decrease_capped_per_sample(self):
        c = self.make(max_decrease=0.5)
        c.on_rtt_sample(1e3)  # absurd overshoot still cuts at most 50%
        assert c.rate_bps == pytest.approx(50 * GBPS)

    def test_loss_applies_max_decrease(self):
        c = self.make(max_decrease=0.5)
        c.on_loss()
        assert c.rate_bps == pytest.approx(50 * GBPS)

    def test_rate_floor(self):
        c = self.make(min_rate_fraction=0.01)
        for i in range(100):
            c.on_loss(now=i * 1e-3)  # one base RTT apart: every cut lands
        assert c.rate_bps == pytest.approx(1 * GBPS)

    def test_ack_progress_increases(self):
        c = self.make()
        c.rate_bps = 50 * GBPS
        c.on_ack_progress()
        assert c.rate_bps == 50 * GBPS + 0.02 * 100 * GBPS

    def test_cuts_gated_to_one_per_base_rtt(self):
        c = self.make(max_decrease=0.5)
        for _ in range(10):
            c.on_loss(now=0.0)  # a same-instant loss burst is one event
        assert c.rate_bps == pytest.approx(50 * GBPS)
        c.on_loss(now=2e-3)  # a base RTT later the next cut is allowed
        assert c.rate_bps == pytest.approx(25 * GBPS)

    def test_validation(self):
        with pytest.raises(ConfigError):
            self.make(base_rtt=0.0)
        with pytest.raises(ConfigError):
            self.make(max_decrease=1.0)
        with pytest.raises(ConfigError):
            SwiftController(line_rate_bps=0.0, base_rtt=1e-3)


class TestDcqcn:
    def make(self, **kw):
        kw.setdefault("line_rate_bps", 100 * GBPS)
        return DcqcnController(**kw)

    def test_first_mark_cuts_by_half_alpha(self):
        c = self.make()  # alpha starts at 1
        c.on_ecn_echo(10, 10)
        assert c.rate_bps == pytest.approx(50 * GBPS)
        assert c.target_rate_bps == 100 * GBPS

    def test_alpha_tracks_mark_fraction(self):
        c = self.make(g=0.5)
        c.on_ecn_echo(1, 10)  # fraction 0.1
        assert c.alpha == pytest.approx(0.5 * 1.0 + 0.5 * 0.1)

    def test_clean_rounds_decay_alpha_and_recover(self):
        c = self.make()
        c.on_ecn_echo(10, 10)
        cut = c.rate_bps
        alpha = c.alpha
        c.on_ack_progress()
        assert c.alpha < alpha
        # Fast recovery halves back toward the pre-cut target.
        assert c.rate_bps == pytest.approx((100 * GBPS + cut) / 2)

    def test_additive_increase_after_recovery_rounds(self):
        c = self.make(fast_recovery_rounds=2)
        c.on_loss()
        c.on_loss()  # target now 50 Gbit/s, well below line rate
        for _ in range(2):
            c.on_ack_progress()
        target = c.target_rate_bps
        assert target == pytest.approx(50 * GBPS)
        c.on_ack_progress()  # past fast recovery: target climbs
        assert c.target_rate_bps == pytest.approx(target + 0.02 * 100 * GBPS)

    def test_target_capped_at_line_rate(self):
        c = self.make(fast_recovery_rounds=0)
        for _ in range(100):
            c.on_ack_progress()
        assert c.target_rate_bps == 100 * GBPS
        assert c.rate_bps == 100 * GBPS

    def test_loss_halves(self):
        c = self.make()
        c.on_loss()
        assert c.rate_bps == pytest.approx(50 * GBPS)

    def test_rate_floor(self):
        c = self.make(min_rate_fraction=0.01)
        for _ in range(100):
            c.on_ecn_echo(10, 10)
        assert c.rate_bps == pytest.approx(1 * GBPS)

    def test_cuts_gated_by_cut_interval(self):
        c = self.make(cut_interval=1e-3)
        for _ in range(10):
            c.on_ecn_echo(10, 10, now=0.0)  # one congestion event
        assert c.rate_bps == pytest.approx(50 * GBPS)
        assert c.alpha == 1.0  # alpha still updates on every echo
        c.on_ecn_echo(10, 10, now=1e-3)
        assert c.rate_bps == pytest.approx(25 * GBPS)

    def test_factory_defaults_cut_interval_to_base_rtt(self):
        c = make_controller("dcqcn", line_rate_bps=100 * GBPS, base_rtt=1e-3)
        assert c.cut_interval == 1e-3

    def test_validation(self):
        with pytest.raises(ConfigError):
            self.make(g=0.0)
        with pytest.raises(ConfigError):
            self.make(fast_recovery_rounds=-1)
        with pytest.raises(ConfigError):
            self.make(cut_interval=-1.0)


class TestFactory:
    def test_all_algorithms_construct(self):
        for name in CC_ALGORITHMS:
            c = make_controller(name, line_rate_bps=100 * GBPS, base_rtt=1e-3)
            assert c.name == name

    def test_none_accepts_fixed_rate(self):
        c = make_controller(
            "none", line_rate_bps=100 * GBPS, base_rtt=1e-3, rate_bps=5 * GBPS
        )
        assert c.rate_bps == 5 * GBPS

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            make_controller("cubic", line_rate_bps=100 * GBPS, base_rtt=1e-3)


class TestRebind:
    """Mid-transfer reroute: controllers re-anchor to the new path."""

    def test_unpaced_static_stays_unpaced(self):
        c = StaticRateController()
        c.rebind(line_rate_bps=10 * GBPS, base_rtt=1e-3)
        assert c.rate_bps is None
        assert c.line_rate_bps is None

    def test_static_rate_clamps_to_new_line(self):
        c = StaticRateController(10 * GBPS)
        c.rebind(line_rate_bps=4 * GBPS, base_rtt=1e-3)
        assert c.rate_bps == 4 * GBPS
        # Rebinding to a faster path never inflates the current rate.
        c.rebind(line_rate_bps=40 * GBPS, base_rtt=1e-3)
        assert c.rate_bps == 4 * GBPS

    def test_swift_preserves_fractions(self):
        c = SwiftController(line_rate_bps=100 * GBPS, base_rtt=1e-3)
        target_rtts = c.target_delay / c.cut_interval
        c.rebind(line_rate_bps=10 * GBPS, base_rtt=4e-3)
        assert c.line_rate_bps == 10 * GBPS
        assert c.rate_bps == 10 * GBPS  # clamped into the new envelope
        assert c.cut_interval == 4e-3
        # The *relative* delay target carries over to the new RTT scale.
        assert c.target_delay / c.cut_interval == pytest.approx(target_rtts)

    def test_swift_learned_rate_survives_upward_rebind(self):
        c = SwiftController(line_rate_bps=100 * GBPS, base_rtt=1e-3)
        c.on_loss(now=1.0)  # learn congestion: rate drops below line
        learned = c.rate_bps
        assert learned < 100 * GBPS
        c.rebind(line_rate_bps=200 * GBPS, base_rtt=1e-3)
        assert c.rate_bps == learned  # not reset to the new line rate

    def test_dcqcn_clamps_rate_and_target(self):
        c = DcqcnController(line_rate_bps=100 * GBPS)
        c.rebind(line_rate_bps=10 * GBPS, base_rtt=2e-3)
        assert c.line_rate_bps == 10 * GBPS
        assert c.rate_bps == 10 * GBPS
        assert c.target_rate_bps == 10 * GBPS
        assert c.cut_interval == 2e-3

    def test_rebind_validation(self):
        c = SwiftController(line_rate_bps=100 * GBPS, base_rtt=1e-3)
        with pytest.raises(ConfigError):
            c.rebind(line_rate_bps=0.0, base_rtt=1e-3)
        with pytest.raises(ConfigError):
            c.rebind(line_rate_bps=10 * GBPS, base_rtt=0.0)


class TestOnAcks:
    """``on_acks`` is the per-ACK calls in order, bit for bit."""

    MAKERS = {
        "static": lambda: StaticRateController(),
        "static_rate": lambda: StaticRateController(10 * GBPS),
        "swift": lambda: SwiftController(line_rate_bps=100 * GBPS, base_rtt=1e-3),
        "dcqcn": lambda: DcqcnController(
            line_rate_bps=100 * GBPS, cut_interval=1e-3
        ),
    }
    #: Swift's delay target for the base RTT above, to the last bit.
    TARGET = 1e-3 * 1.5

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(sorted(MAKERS)),
        # Start at line rate (where Swift may skip the batch) or below it.
        st.sampled_from([1.0, 1.0, 0.97, 0.5, 0.05]),
        # A cut window still open when the batch starts, or not.
        st.floats(min_value=0.0, max_value=3e-3),
        st.lists(
            st.tuples(
                st.one_of(
                    st.just(TARGET),
                    st.floats(min_value=0.2e-3, max_value=TARGET),
                    st.floats(min_value=TARGET, max_value=10e-3),
                ),
                st.booleans(),
                st.floats(min_value=0.0, max_value=1.5e-3),
            ),
            max_size=40,
        ),
    )
    def test_equals_the_per_ack_calls(self, kind, fraction, next_cut, acks):
        batched, stepped = self.MAKERS[kind](), self.MAKERS[kind]()
        for c in (batched, stepped):
            if c.rate_bps is not None:
                c.rate_bps = fraction * c.line_rate_bps
            c._next_cut = next_cut
        rtts, marks, nows = [], [], []
        now = 0.0
        for rtt, mark, step in acks:
            now += step
            rtts.append(rtt)
            marks.append(mark)
            nows.append(now)
            stepped.on_rtt_sample(rtt, now=now)
            if mark:
                stepped.on_ecn_echo(1, 1, now=now)
            else:
                stepped.on_ack_progress(now=now)
        batched.on_acks(rtts, marks, nows)
        # rate_bps, _next_cut, DCQCN's alpha / target / recovery round.
        assert vars(batched) == vars(stepped)

    def test_swift_at_line_rate_and_on_target_skips_the_batch(self):
        c = self.MAKERS["swift"]()
        assert c.target_delay == self.TARGET

        def per_ack(*args, **kwargs):
            raise AssertionError("per-ACK call on a skippable batch")

        c.on_rtt_sample = c.on_ecn_echo = c.on_ack_progress = per_ack
        c.on_acks([1e-3, self.TARGET], [True, False], [0.0, 1e-3])
        c.on_acks([], [], [])
        with pytest.raises(AssertionError, match="per-ACK"):
            c.on_acks([self.TARGET * 1.01], [False], [0.0])
