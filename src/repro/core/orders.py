"""Readback-order strategies.

The verifier chooses the order in which configuration frames are read
back and folded into the MAC (Section 6.1).  The paper's default is an
ascending scan from a random offset ``i`` (modulo the frame count); "the
order ... can be any permutation" and "a number of frames could also
appear multiple times".  Each strategy must *cover* every frame at least
once — the property the verifier's policy enforces.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

from repro.errors import ProtocolError
from repro.utils.rng import DeterministicRng


class ReadbackOrder(abc.ABC):
    """A rule producing the frame readback sequence for one run."""

    name: str = "abstract"

    @abc.abstractmethod
    def frame_sequence(self, total_frames: int) -> List[int]:
        """The exact sequence of frame indices to read back."""

    def validate(self, total_frames: int) -> List[int]:
        """Produce the sequence and check full coverage."""
        sequence = self.frame_sequence(total_frames)
        check_coverage(sequence, total_frames)
        return sequence


def check_coverage(sequence: Sequence[int], total_frames: int) -> None:
    """Every frame must appear at least once; indices must be in range.

    The first out-of-range index, in sequence order, is the one reported.
    Sorting is C-speed, and nearly free on a plan of ascending runs; a
    plan that reads every frame once then sorts to ``range(total_frames)``.
    """
    ordered = sorted(sequence)
    if ordered and (ordered[0] < 0 or ordered[-1] >= total_frames):
        index = next(index for index in sequence if not 0 <= index < total_frames)
        raise ProtocolError(f"readback index {index} out of range")
    if len(ordered) == total_frames and ordered == list(range(total_frames)):
        return
    missing = total_frames - len(set(ordered))
    if missing:
        raise ProtocolError(
            f"readback order misses {missing} of {total_frames} frames; "
            "partial coverage would leave unattested configuration"
        )


class OffsetOrder(ReadbackOrder):
    """The paper's order: ascending from offset ``i``, modulo the count.

    ``ICAP_readback(i), ICAP_readback((i+1) % n), ...,
    ICAP_readback((i+n-1) % n)`` — Figure 9.
    """

    name = "offset"

    def __init__(self, offset: int) -> None:
        if offset < 0:
            raise ProtocolError(f"offset must be non-negative, got {offset}")
        self.offset = offset

    def frame_sequence(self, total_frames: int) -> List[int]:
        start = self.offset % total_frames
        return [*range(start, total_frames), *range(start)]


class SequentialOrder(OffsetOrder):
    """Plain ascending order (offset 0)."""

    name = "sequential"

    def __init__(self) -> None:
        super().__init__(0)


class RandomOffsetOrder(ReadbackOrder):
    """The deployed default: a fresh random offset each run."""

    name = "random-offset"

    def __init__(self, rng: DeterministicRng) -> None:
        self._rng = rng

    def frame_sequence(self, total_frames: int) -> List[int]:
        offset = self._rng.randint(0, total_frames - 1)
        return OffsetOrder(offset).frame_sequence(total_frames)


class PermutationOrder(ReadbackOrder):
    """A uniformly random permutation of all frames."""

    name = "permutation"

    def __init__(self, rng: DeterministicRng) -> None:
        self._rng = rng

    def frame_sequence(self, total_frames: int) -> List[int]:
        return self._rng.permutation(total_frames)


class RepeatedFramesOrder(ReadbackOrder):
    """Full coverage plus extra repeats of randomly chosen frames.

    Repeats increase the prover's work without giving anything away; the
    paper explicitly allows them ("a number of frames could also appear
    multiple times").
    """

    name = "repeated"

    def __init__(self, rng: DeterministicRng, repeat_fraction: float = 0.1) -> None:
        if not 0.0 <= repeat_fraction <= 1.0:
            raise ProtocolError(
                f"repeat fraction must be in [0, 1], got {repeat_fraction}"
            )
        self._rng = rng
        self._repeat_fraction = repeat_fraction

    def frame_sequence(self, total_frames: int) -> List[int]:
        base = self._rng.permutation(total_frames)
        repeats = int(total_frames * self._repeat_fraction)
        extra = [self._rng.randint(0, total_frames - 1) for _ in range(repeats)]
        positions = sorted(
            (self._rng.randint(0, len(base)) for _ in extra), reverse=True
        )
        for position, frame in zip(positions, extra):
            base.insert(position, frame)
        return base


class ExplicitOrder(ReadbackOrder):
    """A caller-provided sequence (used by attack harnesses and tests)."""

    name = "explicit"

    def __init__(self, sequence: Sequence[int], skip_validation: bool = False) -> None:
        self._sequence = list(sequence)
        self._skip_validation = skip_validation

    def frame_sequence(self, total_frames: int) -> List[int]:
        return list(self._sequence)

    def validate(self, total_frames: int) -> List[int]:
        if self._skip_validation:
            return list(self._sequence)
        return super().validate(total_frames)


def default_order(rng: Optional[DeterministicRng] = None) -> ReadbackOrder:
    """The order SACHa ships with: random offset per run."""
    if rng is None:
        return SequentialOrder()
    return RandomOffsetOrder(rng)
