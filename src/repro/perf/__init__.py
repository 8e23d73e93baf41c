"""Performance layer: pluggable crypto backends and bulk frame paths.

The SACHa hot path streams all 28,488 frames of a full device through an
incremental AES-CMAC twice (prover H_Prv and verifier H_Vrf) and then
mask-compares the readback against the golden bitstream.  ``repro.perf``
makes that loop configurable and fast:

* :class:`ReproConfig` selects the AES-CMAC *backend* (``reference``,
  ``table`` or ``native``) and switches the artifact cache, from code or
  from ``REPRO_*`` environment variables;
* :mod:`repro.perf.backends` implements the backends — all byte-identical,
  enforced by known-answer and property tests;
* the fpga/core layers use bulk ``update_frames`` folds, zero-copy frame
  views and cached mask application; the verifier judges the whole
  read-back sweep as one buffer, in one MAC fold and one masked compare.

``benchmarks/bench_gate.py`` is the regression gate CI runs over this
layer.
"""

from repro.perf.backends import (
    BACKEND_NATIVE,
    BACKEND_REFERENCE,
    BACKEND_TABLE,
    available_backends,
    get_cipher,
    native_available,
    resolve_backend_name,
)
from repro.perf.config import (
    ReproConfig,
    configured,
    get_config,
    set_config,
)

__all__ = [
    "BACKEND_NATIVE",
    "BACKEND_REFERENCE",
    "BACKEND_TABLE",
    "ReproConfig",
    "available_backends",
    "configured",
    "get_cipher",
    "get_config",
    "native_available",
    "resolve_backend_name",
    "set_config",
]
