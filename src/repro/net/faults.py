"""Deterministic fault injection for the simulated channel.

The paper's verifier and prover talk over real Gigabit Ethernet, where
frames are not only *lost* but corrupted, duplicated, reordered,
truncated, and — during switch reboots or cable wiggles — blacked out
for whole windows.  :class:`FaultModel` composes those behaviours into
one deterministic per-frame decision that :class:`~repro.net.channel.Channel`
consults on every transmit.

Everything draws from a :class:`~repro.utils.rng.DeterministicRng`, so a
seeded run under any fault combination reproduces bit-for-bit: the same
frames are corrupted in the same bit positions, the same copies are
duplicated, the same outage windows swallow the same traffic.

A :class:`FaultProfile` is the declarative description (probabilities
and outage windows); a :class:`FaultModel` is the stateful instance
bound to an RNG that also keeps injection counters and feeds the
``sacha_net_faults_total`` metric.  Profiles parse from compact specs —
``"loss=0.05,corrupt=0.02,outage=5ms+50ms"`` — which the CLI's
``--fault-profile`` flag and the CI fault matrix use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.ethernet import EthernetFrame
from repro.obs.metrics import get_registry
from repro.utils.rng import DeterministicRng


@dataclass(frozen=True)
class OutageWindow:
    """A scheduled link-down burst: every frame in the window is dropped."""

    start_ns: float
    end_ns: float

    def __post_init__(self) -> None:
        if self.start_ns < 0 or self.end_ns <= self.start_ns:
            raise NetworkError(
                f"outage window [{self.start_ns}, {self.end_ns}) is empty "
                "or negative"
            )

    def contains(self, time_ns: float) -> bool:
        return self.start_ns <= time_ns < self.end_ns

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class Delivery:
    """One copy of a frame the channel should deliver (possibly late)."""

    frame: EthernetFrame
    extra_delay_ns: float = 0.0


_TIME_SUFFIXES = (("ms", 1e6), ("us", 1e3), ("ns", 1.0), ("s", 1e9))


def parse_duration_ns(text: str) -> float:
    """``"50ms"`` / ``"250us"`` / ``"3s"`` / bare nanoseconds → ns."""
    text = text.strip()
    for suffix, scale in _TIME_SUFFIXES:
        if text.endswith(suffix):
            try:
                return float(text[: -len(suffix)]) * scale
            except ValueError as exc:
                raise NetworkError(f"malformed duration {text!r}") from exc
    try:
        return float(text)
    except ValueError as exc:
        raise NetworkError(f"malformed duration {text!r}") from exc


@dataclass(frozen=True)
class FaultProfile:
    """Declarative description of how a link misbehaves.

    All probabilities are per-frame and independent; ``outages`` are
    absolute simulation-time windows during which the link is down.
    """

    loss_probability: float = 0.0
    corruption_probability: float = 0.0
    corruption_max_bits: int = 3
    duplication_probability: float = 0.0
    reorder_probability: float = 0.0
    reorder_extra_ns: float = 200_000.0
    truncation_probability: float = 0.0
    outages: Tuple[OutageWindow, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "loss_probability",
            "corruption_probability",
            "duplication_probability",
            "reorder_probability",
            "truncation_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise NetworkError(f"{name} {value} out of range [0, 1)")
        if self.corruption_max_bits < 1:
            raise NetworkError(
                f"corruption_max_bits must be >= 1, got {self.corruption_max_bits}"
            )
        if self.reorder_extra_ns < 0:
            raise NetworkError(
                f"reorder_extra_ns must be >= 0, got {self.reorder_extra_ns}"
            )

    @property
    def is_stochastic(self) -> bool:
        """Does any behaviour need random draws (vs. pure outage schedule)?"""
        return any(
            probability > 0.0
            for probability in (
                self.loss_probability,
                self.corruption_probability,
                self.duplication_probability,
                self.reorder_probability,
                self.truncation_probability,
            )
        )

    @property
    def is_active(self) -> bool:
        return self.is_stochastic or bool(self.outages)

    @classmethod
    def named(cls, name: str) -> "FaultProfile":
        """The built-in profiles the CLI and CI matrix reference."""
        profiles = {
            "clean": cls(),
            "lossy": cls(loss_probability=0.05),
            "noisy": cls(
                loss_probability=0.05,
                corruption_probability=0.02,
                duplication_probability=0.02,
            ),
            "harsh": cls(
                loss_probability=0.08,
                corruption_probability=0.04,
                duplication_probability=0.03,
                reorder_probability=0.03,
                truncation_probability=0.01,
            ),
        }
        try:
            return profiles[name]
        except KeyError:
            raise NetworkError(
                f"unknown fault profile {name!r}; "
                f"known: {', '.join(sorted(profiles))}"
            ) from None

    @classmethod
    def parse(cls, spec: str) -> "FaultProfile":
        """A named profile or a ``key=value,...`` spec.

        Keys: ``loss``, ``corrupt``, ``corrupt_bits``, ``dup``,
        ``reorder``, ``reorder_delay``, ``trunc``, and (repeatable)
        ``outage=START+DURATION`` with ``ms``/``us``/``ns``/``s``
        suffixes — e.g. ``"loss=0.05,corrupt=0.02,outage=5ms+50ms"``.
        """
        spec = spec.strip()
        if not spec:
            return cls()
        if "=" not in spec:
            return cls.named(spec)
        profile = cls()
        outages: List[OutageWindow] = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise NetworkError(f"malformed fault spec item {part!r}")
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key == "loss":
                    profile = replace(profile, loss_probability=float(value))
                elif key == "corrupt":
                    profile = replace(profile, corruption_probability=float(value))
                elif key == "corrupt_bits":
                    profile = replace(profile, corruption_max_bits=int(value))
                elif key == "dup":
                    profile = replace(profile, duplication_probability=float(value))
                elif key == "reorder":
                    profile = replace(profile, reorder_probability=float(value))
                elif key == "reorder_delay":
                    profile = replace(
                        profile, reorder_extra_ns=parse_duration_ns(value)
                    )
                elif key == "trunc":
                    profile = replace(profile, truncation_probability=float(value))
                elif key == "outage":
                    start_text, _, duration_text = value.partition("+")
                    if not duration_text:
                        raise NetworkError(
                            f"outage needs START+DURATION, got {value!r}"
                        )
                    start = parse_duration_ns(start_text)
                    window = OutageWindow(
                        start, start + parse_duration_ns(duration_text)
                    )
                    outages.append(window)
                else:
                    raise NetworkError(f"unknown fault spec key {key!r}")
            except ValueError as exc:
                raise NetworkError(
                    f"malformed fault spec value {part!r}"
                ) from exc
        if outages:
            profile = replace(profile, outages=tuple(outages))
        return profile


@dataclass
class FaultCounters:
    """Injection counts kept by one :class:`FaultModel` instance."""

    frames_seen: int = 0
    lost: int = 0
    corrupted: int = 0
    duplicated: int = 0
    reordered: int = 0
    truncated: int = 0
    outage_dropped: int = 0

    def as_dict(self) -> dict:
        return {
            "frames_seen": self.frames_seen,
            "lost": self.lost,
            "corrupted": self.corrupted,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "truncated": self.truncated,
            "outage_dropped": self.outage_dropped,
        }


class FaultModel:
    """A :class:`FaultProfile` bound to an RNG, applied per frame.

    ``perturb`` maps one offered frame to zero, one or two deliveries:
    an outage or loss yields none; duplication yields two; corruption and
    truncation rewrite the copy; reordering adds a delivery delay so a
    later frame overtakes this one.  Effects compose — a duplicated
    frame's copies are corrupted independently.
    """

    def __init__(
        self, profile: FaultProfile, rng: Optional[DeterministicRng] = None
    ) -> None:
        if profile.is_stochastic and rng is None:
            raise NetworkError(
                "a stochastic fault profile needs an rng for deterministic "
                "replay; pass DeterministicRng(seed)"
            )
        self.profile = profile
        self._rng = rng
        self.counters = FaultCounters()

    def _count(self, kind: str) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "sacha_net_faults_total",
                "Frame-level faults injected by the channel fault model",
                labels=("kind",),
            ).inc(kind=kind)

    def _corrupt(self, frame: EthernetFrame) -> EthernetFrame:
        payload = bytearray(frame.payload)
        if not payload:
            return frame
        flips = self._rng.randint(1, self.profile.corruption_max_bits)
        for _ in range(flips):
            position = self._rng.randint(0, len(payload) * 8 - 1)
            payload[position // 8] ^= 1 << (position % 8)
        return EthernetFrame(
            frame.destination, frame.source, frame.ethertype, bytes(payload)
        )

    def _truncate(self, frame: EthernetFrame) -> EthernetFrame:
        if len(frame.payload) <= 1:
            return frame
        keep = self._rng.randint(1, len(frame.payload) - 1)
        return EthernetFrame(
            frame.destination, frame.source, frame.ethertype, frame.payload[:keep]
        )

    def perturb(
        self, time_ns: float, direction: str, frame: EthernetFrame
    ) -> List[Delivery]:
        """The copies of ``frame`` the channel should schedule."""
        profile = self.profile
        counters = self.counters
        counters.frames_seen += 1

        for window in profile.outages:
            if window.contains(time_ns):
                counters.outage_dropped += 1
                self._count("outage")
                return []
        if profile.loss_probability and self._rng.chance(profile.loss_probability):
            counters.lost += 1
            self._count("loss")
            return []

        copies = [frame]
        if profile.duplication_probability and self._rng.chance(
            profile.duplication_probability
        ):
            counters.duplicated += 1
            self._count("duplication")
            copies.append(frame)

        deliveries: List[Delivery] = []
        for copy in copies:
            if profile.truncation_probability and self._rng.chance(
                profile.truncation_probability
            ):
                counters.truncated += 1
                self._count("truncation")
                copy = self._truncate(copy)
            if profile.corruption_probability and self._rng.chance(
                profile.corruption_probability
            ):
                counters.corrupted += 1
                self._count("corruption")
                copy = self._corrupt(copy)
            extra_delay_ns = 0.0
            if profile.reorder_probability and self._rng.chance(
                profile.reorder_probability
            ):
                counters.reordered += 1
                self._count("reorder")
                # Hold this copy back long enough for a later frame to
                # overtake it (at least one frame time at any rate).
                extra_delay_ns = profile.reorder_extra_ns * (
                    1.0 + self._rng.random()
                )
            deliveries.append(Delivery(frame=copy, extra_delay_ns=extra_delay_ns))
        return deliveries
