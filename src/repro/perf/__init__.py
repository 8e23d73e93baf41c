"""Performance layer: pluggable crypto backends and bulk frame paths.

The SACHa hot path streams all 28,488 frames of a full device through an
incremental AES-CMAC twice (prover H_Prv and verifier H_Vrf) and then
mask-compares the readback against the golden bitstream.  ``repro.perf``
makes that loop fast:

* :mod:`repro.perf.backends` implements the AES-CMAC *backends*
  (``reference``, ``table`` and ``native``) — all byte-identical,
  enforced by known-answer and property tests.  The platform decides
  which one runs: ``native`` when the optional ``cryptography`` package
  imports, ``table`` otherwise; tests name a backend explicitly;
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

__all__ = [
    "BACKEND_NATIVE",
    "BACKEND_REFERENCE",
    "BACKEND_TABLE",
    "available_backends",
    "get_cipher",
    "native_available",
    "resolve_backend_name",
]
