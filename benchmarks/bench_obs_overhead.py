"""Observability overhead: the same attestation with telemetry on and off.

The obs layer promises to be invisible when disabled (the ``_NOOP``
registry path) and *cheap* when enabled — counters, histograms, span
records, and trace stamping all ride the attestation hot path.  This
suite pins both sides of that promise with an identical in-memory
SIM-MEDIUM attestation, differing only in the active registry.

``bench_gate.py`` consumes the pair directly: besides the usual
per-benchmark regression thresholds, it computes the enabled/disabled
ratio from the two ``min`` times and fails when instrumentation costs
more than ``OBS_OVERHEAD_LIMIT`` (5 %).
"""

from repro.core.protocol import run_attestation
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.utils.rng import DeterministicRng

# The gate compares the two ``min`` times, so enough rounds are needed
# for both sides to catch an equally quiet moment of the machine.
ROUNDS = 30
WARMUP = 3


def _attest_once(provisioned, verifier, seed):
    result = run_attestation(
        provisioned.prover, verifier, DeterministicRng(seed)
    )
    assert result.report.accepted
    return result


def test_attestation_obs_disabled(benchmark, medium_stack):
    """Baseline: the ambient registry is the disabled no-op singleton."""
    provisioned, verifier = medium_stack

    result = benchmark.pedantic(
        lambda: _attest_once(provisioned, verifier, seed=4100),
        rounds=ROUNDS,
        warmup_rounds=WARMUP,
        iterations=1,
    )
    assert result.report.accepted


def test_attestation_obs_enabled(benchmark, medium_stack):
    """Same run with a live registry: counters, histograms, spans, trace."""
    provisioned, verifier = medium_stack
    registry = MetricsRegistry(enabled=True)
    state = {}

    def setup():
        registry.clear()
        return (), {}

    def run():
        with use_registry(registry):
            state["result"] = _attest_once(provisioned, verifier, seed=4100)

    benchmark.pedantic(
        run, setup=setup, rounds=ROUNDS, warmup_rounds=WARMUP, iterations=1
    )
    assert state["result"].report.accepted
    assert registry.get("sacha_attestations_total").value(result="accept") == 1
    assert [r.name for r in registry.spans if r.parent_id is None] == [
        "attestation"
    ]
