"""Runtime performance configuration.

One process-wide :class:`ReproConfig` controls which AES-CMAC backend the
crypto layer instantiates and how much parallelism the swarm sweep may
use.  The defaults come from the environment so CLI runs and CI jobs can
switch backends without code changes::

    REPRO_AES_BACKEND=reference   # reference | table | native | auto
    REPRO_SWARM_WORKERS=4         # 0/1 = sequential sweep
    REPRO_ARQ_WINDOW=8            # ARQ payloads in flight; 1 = stop-and-wait
    REPRO_ARQ_ADAPTIVE=1          # AIMD window adaptation (window = ceiling)
    REPRO_READBACK_BATCH_FRAMES=256  # frames per batched readback; 1 = per-frame
    REPRO_ARTIFACT_CACHE=1        # memoize built system artifacts per part
    REPRO_CACHE_DIR=~/.cache/repro  # persist artifacts on disk ("" = off)

``auto`` (the default) picks ``native`` when the optional ``cryptography``
package is importable and falls back to the pure-Python ``table`` backend
otherwise, so a bare install still runs everywhere — just slower.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.errors import ReproError

#: Recognized values for :attr:`ReproConfig.aes_backend`.
AES_BACKEND_CHOICES = ("auto", "reference", "table", "native")

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off")


@dataclass(frozen=True)
class ReproConfig:
    """Process-wide performance knobs.

    The object is immutable; use :func:`set_config`, :func:`configured`
    or :meth:`with_overrides` to install a changed copy.
    """

    #: AES-CMAC backend name: ``auto``, ``reference``, ``table``, ``native``.
    aes_backend: str = "auto"
    #: Thread workers for independent swarm-member attestations.
    #: ``0`` or ``1`` keeps the sweep sequential (byte-identical telemetry
    #: ordering); higher values attest members concurrently.
    swarm_workers: int = 0
    #: ARQ send-window size for networked sessions: how many payloads may
    #: be unacknowledged at once.  ``1`` is the legacy stop-and-wait and
    #: stays byte-identical to it.
    arq_window: int = 8
    #: AIMD adaptation of the ARQ send window: ``arq_window`` becomes the
    #: *ceiling* of a congestion window that halves on retransmission
    #: timeouts and regrows additively on clean ACKs.  The window starts
    #: at the ceiling, so clean links behave identically either way.
    arq_adaptive: bool = True
    #: Frame indices per ``ICAP_readback_batch`` command in the networked
    #: session.  ``1`` sends the paper's per-frame readback step as a
    #: one-index batch; larger values pack many frames per payload.  The
    #: MAC tag is the same for every value.
    readback_batch_frames: int = 256
    #: Master switch for the content-addressed artifact cache: with it on,
    #: devices of the same part share one memoized system build (golden
    #: template, combined mask, boot image).  Off forces every
    #: materialization to rebuild from scratch — the cold baseline the
    #: benchmarks compare against.
    artifact_cache: bool = True
    #: Directory of the persistent on-disk artifact tier.  Empty (the
    #: default) keeps the cache in-process only; set it to warm-start
    #: sweeps across processes.  Entries are checksummed and rebuilt on
    #: any mismatch, so a stale or corrupted directory is safe.
    cache_dir: str = ""

    def __post_init__(self) -> None:
        if self.aes_backend not in AES_BACKEND_CHOICES:
            raise ReproError(
                f"unknown AES backend {self.aes_backend!r}; "
                f"choose from {', '.join(AES_BACKEND_CHOICES)}"
            )
        if self.swarm_workers < 0:
            raise ReproError(
                f"swarm_workers must be non-negative, got {self.swarm_workers}"
            )
        if self.arq_window < 1:
            raise ReproError(
                f"arq_window must be >= 1, got {self.arq_window}"
            )
        if self.readback_batch_frames < 1:
            raise ReproError(
                f"readback_batch_frames must be >= 1, "
                f"got {self.readback_batch_frames}"
            )

    def with_overrides(self, **changes: object) -> "ReproConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    @classmethod
    def from_env(cls, environ: Optional[dict] = None) -> "ReproConfig":
        """Build a config from ``REPRO_*`` environment variables."""
        env = os.environ if environ is None else environ
        backend = env.get("REPRO_AES_BACKEND", "auto").strip().lower() or "auto"
        workers_raw = env.get("REPRO_SWARM_WORKERS", "0").strip() or "0"
        try:
            workers = int(workers_raw)
        except ValueError:
            raise ReproError(
                f"REPRO_SWARM_WORKERS must be an integer, got {workers_raw!r}"
            ) from None
        def _int_env(name: str, default: str) -> int:
            raw = env.get(name, default).strip() or default
            try:
                return int(raw)
            except ValueError:
                raise ReproError(
                    f"{name} must be an integer, got {raw!r}"
                ) from None

        window = _int_env("REPRO_ARQ_WINDOW", "8")
        batch_frames = _int_env("REPRO_READBACK_BATCH_FRAMES", "256")

        def _bool_env(name: str, default: str) -> bool:
            raw = env.get(name, default).strip().lower() or default
            if raw in _TRUTHY:
                return True
            if raw in _FALSY:
                return False
            raise ReproError(
                f"{name} must be a boolean flag, got {raw!r}"
            )

        adaptive = _bool_env("REPRO_ARQ_ADAPTIVE", "1")
        artifact_cache = _bool_env("REPRO_ARTIFACT_CACHE", "1")
        cache_dir = env.get("REPRO_CACHE_DIR", "").strip()
        return cls(
            aes_backend=backend,
            swarm_workers=workers,
            arq_window=window,
            arq_adaptive=adaptive,
            readback_batch_frames=batch_frames,
            artifact_cache=artifact_cache,
            cache_dir=cache_dir,
        )


_config: Optional[ReproConfig] = None


def get_config() -> ReproConfig:
    """The active configuration (lazily initialized from the environment)."""
    global _config
    if _config is None:
        _config = ReproConfig.from_env()
    return _config


def set_config(config: Optional[ReproConfig]) -> Optional[ReproConfig]:
    """Install ``config`` as the active one; returns the previous value.

    Passing ``None`` resets to lazy re-initialization from the
    environment (used by tests).
    """
    global _config
    previous = _config
    _config = config
    return previous


@contextlib.contextmanager
def configured(**overrides: object) -> Iterator[ReproConfig]:
    """Temporarily override configuration fields::

        with configured(aes_backend="reference"):
            ...
    """
    current = get_config()
    replaced = current.with_overrides(**overrides)
    previous = set_config(replaced)
    try:
        yield replaced
    finally:
        set_config(previous)
