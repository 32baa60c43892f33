"""Rate controllers for the ``repro.cc`` congestion-control plane.

The paper's Figure 2 campaign attributes WAN loss to ISP switch-buffer
congestion; senders that blast at line rate -- and retransmit into the very
queue that dropped them -- reproduce exactly that collapse.  ``repro.cc``
closes the loop: channels mark CE when their backlog crosses a threshold,
receivers echo the marks through the reliability ACK path, and a
:class:`RateController` turns the echoed signal into a send rate that a
:class:`~repro.cc.pacer.Pacer` enforces at SDR injection time.

Three controllers ship behind one interface:

* :class:`StaticRateController` -- the default null controller.  With
  ``rate_bps=None`` it never paces, so every pre-cc same-seed trace stays
  byte-identical; with an explicit rate it is a fixed-rate pacer for tests.
* :class:`SwiftController` -- Swift-style delay-target AIMD on RTT samples
  (additive increase below the target delay, multiplicative decrease scaled
  by how far the sample overshoots it).
* :class:`DcqcnController` -- DCQCN-style ECN-fraction control: an EWMA
  ``alpha`` tracks the marked fraction, CE feedback cuts the rate by
  ``alpha/2``, clean ACK rounds recover toward the pre-cut target and then
  increase additively.

All controllers are deterministic and event-free: they own no simulator
state, they only fold signals into ``rate_bps``.
"""

from __future__ import annotations

from repro.common.errors import ConfigError

CC_ALGORITHMS = ("none", "swift", "dcqcn")
#: Additive increase per step, as a fraction of line rate (Swift and DCQCN).
AI_FRACTION = 0.02
#: Swift's delay target, in base RTTs.
SWIFT_TARGET_RTTS = 1.5
#: Swift's multiplicative-decrease gain on the relative overshoot.
SWIFT_BETA = 0.8


class RateController:
    """Interface between congestion signals and the pacer's send rate.

    Subclasses fold signals into :attr:`rate_bps`; ``None`` means
    "unpaced" (the pacer bypasses its token buckets entirely).
    """

    name = "base"

    def __init__(self, *, line_rate_bps: float | None = None):
        if line_rate_bps is not None and line_rate_bps <= 0:
            raise ConfigError(f"line rate must be > 0, got {line_rate_bps}")
        self.line_rate_bps = line_rate_bps
        self.rate_bps: float | None = line_rate_bps
        #: Minimum simulated seconds between multiplicative cuts.  A burst
        #: of losses (a whole window dropped at once) is *one* congestion
        #: event; per-signal cuts would hammer the rate to the floor.
        self.cut_interval = 0.0
        self._next_cut = 0.0

    def _cut_allowed(self, now: float) -> bool:
        """True at most once per ``cut_interval`` of simulated time."""
        if self.cut_interval > 0.0 and now < self._next_cut:
            return False
        self._next_cut = now + self.cut_interval
        return True

    def rebind(
        self, *, line_rate_bps: float, base_rtt: float, now: float = 0.0
    ) -> None:
        """Re-anchor the controller to a new path (mid-transfer reroute).

        The fabric calls this when a flow's route changes: the bottleneck
        rate and base RTT of the *new* path replace the old anchors, and
        the current rate is clamped into the new envelope rather than
        reset -- congestion state learned so far stays meaningful.
        An unpaced null controller (``line_rate_bps=None``) is untouched.
        """
        if line_rate_bps <= 0:
            raise ConfigError(f"line rate must be > 0, got {line_rate_bps}")
        if base_rtt <= 0:
            raise ConfigError(f"base RTT must be > 0, got {base_rtt}")
        if self.line_rate_bps is None:
            return
        self.line_rate_bps = line_rate_bps
        if self.rate_bps is not None:
            self.rate_bps = min(self.rate_bps, line_rate_bps)

    # -- signal ingress (all optional no-ops) -----------------------------------

    def on_rtt_sample(self, sample: float, now: float = 0.0) -> None:
        """A Karn-valid RTT sample (first-transmission chunk ACK)."""

    def on_ecn_echo(self, marked: int, seen: int, now: float = 0.0) -> None:
        """The ACK path echoed ``marked`` CE packets out of ``seen``."""

    def on_ack_progress(self, now: float = 0.0) -> None:
        """An ACK advanced the window without any CE marks."""

    def on_loss(self, now: float = 0.0) -> None:
        """The reliability layer declared a loss (RTO fire)."""

    def on_acks(
        self, rtts: list[float], marks: list[bool], nows: list[float]
    ) -> None:
        """ACKs in order: each an RTT sample, then its CE echo or progress."""
        for rtt, mark, now in zip(rtts, marks, nows):
            self.on_rtt_sample(rtt, now)
            if mark:
                self.on_ecn_echo(1, 1, now)
            else:
                self.on_ack_progress(now)


class StaticRateController(RateController):
    """The null controller: a fixed rate, or unpaced when ``rate_bps=None``.

    The default for every sender -- with no rate the pacer never inserts a
    wait, so all existing same-seed traces stay byte-identical.
    """

    name = "none"

    def __init__(self, rate_bps: float | None = None):
        super().__init__(line_rate_bps=rate_bps)


class SwiftController(RateController):
    """Swift-style delay-target AIMD (Kumar et al., SIGCOMM '20).

    Each RTT sample is compared against ``target_delay``
    (``SWIFT_TARGET_RTTS`` base RTTs): at or below it the rate additively
    increases by ``AI_FRACTION`` of line rate; above it the rate is cut
    multiplicatively by ``SWIFT_BETA`` scaled with the relative
    overshoot, capped at ``max_decrease``.  RTO fires apply the
    full ``max_decrease`` cut.  Clean ACK progress also increases
    additively (Swift updates on every ACK), and -- as in Swift -- at
    most one multiplicative decrease happens per ``base_rtt``.
    """

    name = "swift"

    def __init__(
        self,
        *,
        line_rate_bps: float,
        base_rtt: float,
        max_decrease: float = 0.5,
        min_rate_fraction: float = 0.01,
    ):
        super().__init__(line_rate_bps=line_rate_bps)
        if base_rtt <= 0:
            raise ConfigError(f"base RTT must be > 0, got {base_rtt}")
        if not 0 < max_decrease < 1:
            raise ConfigError(f"max decrease must be in (0, 1), got {max_decrease}")
        if not 0 < min_rate_fraction <= 1:
            raise ConfigError(
                f"min rate fraction must be in (0, 1], got {min_rate_fraction}"
            )
        self.target_delay = base_rtt * SWIFT_TARGET_RTTS
        self.cut_interval = base_rtt
        self._ai_bps = AI_FRACTION * line_rate_bps
        self._max_decrease = max_decrease
        self._min_rate_bps = min_rate_fraction * line_rate_bps

    def rebind(
        self, *, line_rate_bps: float, base_rtt: float, now: float = 0.0
    ) -> None:
        # Preserve the configured *fractions*, re-anchored to the new path.
        target_rtts = self.target_delay / self.cut_interval
        ai_fraction = self._ai_bps / self.line_rate_bps
        min_fraction = self._min_rate_bps / self.line_rate_bps
        super().rebind(line_rate_bps=line_rate_bps, base_rtt=base_rtt, now=now)
        self.target_delay = base_rtt * target_rtts
        self.cut_interval = base_rtt
        self._ai_bps = ai_fraction * line_rate_bps
        self._min_rate_bps = min_fraction * line_rate_bps
        self.rate_bps = max(self.rate_bps, self._min_rate_bps)

    def _increase(self) -> None:
        self.rate_bps = min(self.rate_bps + self._ai_bps, self.line_rate_bps)

    def on_rtt_sample(self, sample: float, now: float = 0.0) -> None:
        assert self.rate_bps is not None
        if sample <= self.target_delay:
            self._increase()
        elif self._cut_allowed(now):
            overshoot = (sample - self.target_delay) / sample
            factor = max(1.0 - SWIFT_BETA * overshoot, 1.0 - self._max_decrease)
            self.rate_bps = max(self.rate_bps * factor, self._min_rate_bps)

    def on_ack_progress(self, now: float = 0.0) -> None:
        assert self.rate_bps is not None
        self._increase()

    def on_acks(self, rtts, marks, nows) -> None:
        # At line rate with every sample on target each step is
        # min(line + ai, line) == line, a CE echo is a no-op and no cut
        # consults _cut_allowed: the batch changes nothing.
        at_line = self.rate_bps == self.line_rate_bps
        if not at_line or max(rtts, default=0.0) > self.target_delay:
            super().on_acks(rtts, marks, nows)

    def on_loss(self, now: float = 0.0) -> None:
        assert self.rate_bps is not None
        if not self._cut_allowed(now):
            return
        self.rate_bps = max(
            self.rate_bps * (1.0 - self._max_decrease), self._min_rate_bps
        )


class DcqcnController(RateController):
    """DCQCN-style ECN-fraction control (Zhu et al., SIGCOMM '15).

    ``alpha`` is an EWMA (gain ``g``) of the echoed CE fraction.  A
    feedback round with marks records the current rate as the recovery
    target and cuts by ``alpha/2``; mark-free ACK rounds first halve back
    toward the target (fast recovery) and after ``fast_recovery_rounds``
    raise the target additively by ``AI_FRACTION`` of line rate.  Rate
    cuts (CE or loss) happen at most once per ``cut_interval`` of
    simulated time -- DCQCN's rate-decrease timer -- so a burst of
    feedback is one congestion event; ``alpha`` still updates on every
    echo.

    The recovery defaults are tighter than the paper's (one fast-recovery
    round, 5% floor): our feedback rounds are ACK-clocked rather than
    timer-driven, so at a deeply cut rate the rounds themselves slow down
    and the paper's five-round wait would stall recovery for milliseconds.
    """

    name = "dcqcn"

    def __init__(
        self,
        *,
        line_rate_bps: float,
        g: float = 1.0 / 16.0,
        fast_recovery_rounds: int = 1,
        min_rate_fraction: float = 0.05,
        cut_interval: float = 0.0,
    ):
        super().__init__(line_rate_bps=line_rate_bps)
        if not 0 < g <= 1:
            raise ConfigError(f"EWMA gain must be in (0, 1], got {g}")
        if fast_recovery_rounds < 0:
            raise ConfigError(
                f"fast-recovery rounds must be >= 0, got {fast_recovery_rounds}"
            )
        if not 0 < min_rate_fraction <= 1:
            raise ConfigError(
                f"min rate fraction must be in (0, 1], got {min_rate_fraction}"
            )
        if cut_interval < 0:
            raise ConfigError(f"cut interval must be >= 0, got {cut_interval}")
        self._g = g
        self._fast_recovery_rounds = fast_recovery_rounds
        self._ai_bps = AI_FRACTION * line_rate_bps
        self._min_rate_bps = min_rate_fraction * line_rate_bps
        self.cut_interval = cut_interval
        self.alpha = 1.0
        self.target_rate_bps = line_rate_bps
        self._recovery_round = 0

    def rebind(
        self, *, line_rate_bps: float, base_rtt: float, now: float = 0.0
    ) -> None:
        ai_fraction = self._ai_bps / self.line_rate_bps
        min_fraction = self._min_rate_bps / self.line_rate_bps
        super().rebind(line_rate_bps=line_rate_bps, base_rtt=base_rtt, now=now)
        self.cut_interval = base_rtt
        self._ai_bps = ai_fraction * line_rate_bps
        self._min_rate_bps = min_fraction * line_rate_bps
        self.target_rate_bps = min(self.target_rate_bps, line_rate_bps)
        self.rate_bps = max(min(self.rate_bps, line_rate_bps), self._min_rate_bps)

    def on_ecn_echo(self, marked: int, seen: int, now: float = 0.0) -> None:
        assert self.rate_bps is not None
        fraction = marked / max(seen, marked, 1)
        self.alpha = (1.0 - self._g) * self.alpha + self._g * fraction
        if not self._cut_allowed(now):
            return
        self.target_rate_bps = self.rate_bps
        self.rate_bps = max(
            self.rate_bps * (1.0 - self.alpha / 2.0), self._min_rate_bps
        )
        self._recovery_round = 0

    def on_ack_progress(self, now: float = 0.0) -> None:
        assert self.rate_bps is not None
        self.alpha *= 1.0 - self._g
        self._recovery_round += 1
        if self._recovery_round > self._fast_recovery_rounds:
            self.target_rate_bps = min(
                self.target_rate_bps + self._ai_bps, self.line_rate_bps
            )
        self.rate_bps = min(
            (self.target_rate_bps + self.rate_bps) / 2.0, self.line_rate_bps
        )

    def on_loss(self, now: float = 0.0) -> None:
        assert self.rate_bps is not None
        if not self._cut_allowed(now):
            return
        self.target_rate_bps = self.rate_bps
        self.rate_bps = max(self.rate_bps / 2.0, self._min_rate_bps)
        self._recovery_round = 0


def make_controller(
    algorithm: str,
    *,
    line_rate_bps: float,
    base_rtt: float,
    **knobs,
) -> RateController:
    """Build a controller by name (``none`` / ``swift`` / ``dcqcn``).

    ``line_rate_bps`` caps increase at the bottleneck rate; ``base_rtt``
    anchors Swift's delay target (ignored by the others).  ``knobs`` pass
    through to the controller constructor.
    """
    if algorithm == "none":
        return StaticRateController(knobs.pop("rate_bps", None))
    if algorithm == "swift":
        return SwiftController(
            line_rate_bps=line_rate_bps, base_rtt=base_rtt, **knobs
        )
    if algorithm == "dcqcn":
        knobs.setdefault("cut_interval", base_rtt)
        return DcqcnController(line_rate_bps=line_rate_bps, **knobs)
    raise ConfigError(
        f"cc algorithm must be one of {CC_ALGORITHMS}, got {algorithm!r}"
    )
