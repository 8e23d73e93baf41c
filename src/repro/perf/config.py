"""Runtime performance configuration.

One process-wide :class:`ReproConfig` controls which AES-CMAC backend the
crypto layer instantiates and whether the artifact cache memoizes system
builds.  The defaults come from the environment so CLI runs and CI jobs
can switch backends without code changes::

    REPRO_AES_BACKEND=reference   # reference | table | native | auto
    REPRO_ARTIFACT_CACHE=1        # memoize built system artifacts per part

``auto`` (the default) picks ``native`` when the optional ``cryptography``
package is importable and falls back to the pure-Python ``table`` backend
otherwise, so a bare install still runs everywhere — just slower.

A networked session's transport is not process-wide: each
``NetworkAttestationSession`` takes its own ``arq_tuning``
(:class:`repro.net.arq.ArqTuning`) and ``readback_batch_frames``.
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
    #: Master switch for the content-addressed artifact cache: with it on,
    #: devices of the same part share one memoized system build (golden
    #: template, combined mask, boot image).  Off forces every
    #: materialization to rebuild from scratch — the cold baseline the
    #: benchmarks compare against.
    artifact_cache: bool = True

    def __post_init__(self) -> None:
        if self.aes_backend not in AES_BACKEND_CHOICES:
            raise ReproError(
                f"unknown AES backend {self.aes_backend!r}; "
                f"choose from {', '.join(AES_BACKEND_CHOICES)}"
            )

    def with_overrides(self, **changes: object) -> "ReproConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    @classmethod
    def from_env(cls, environ: Optional[dict] = None) -> "ReproConfig":
        """Build a config from ``REPRO_*`` environment variables."""
        env = os.environ if environ is None else environ
        backend = env.get("REPRO_AES_BACKEND", "auto").strip().lower() or "auto"

        def _bool_env(name: str, default: str) -> bool:
            raw = env.get(name, default).strip().lower() or default
            if raw in _TRUTHY:
                return True
            if raw in _FALSY:
                return False
            raise ReproError(
                f"{name} must be a boolean flag, got {raw!r}"
            )

        return cls(
            aes_backend=backend,
            artifact_cache=_bool_env("REPRO_ARTIFACT_CACHE", "1"),
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
