"""Graceful degradation across the stack: sessions, swarms, monitors.

These tests pin the PR's acceptance scenario: under a fault profile
combining loss, corruption, duplication, and a scheduled outage, a
seeded networked session reaches a *definite* verdict (accept, reject,
or inconclusive — never a traceback), exports its retransmission and
backoff telemetry, and reproduces that telemetry bit-for-bit from the
same seed.
"""

import pytest

from repro.core.monitor import AttestationMonitor
from repro.core.net_session import NetworkAttestationSession
from repro.core.provisioning import provision_device
from repro.core.report import Verdict
from repro.core.swarm import SwarmAttestation, SwarmMember
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.errors import NetworkError
from repro.fpga.device import SIM_SMALL
from repro.net.arq import ArqTuning
from repro.net.channel import Channel, LatencyModel
from repro.net.faults import FaultModel, FaultProfile, OutageWindow
from repro.obs.exporters import registry_snapshot, to_prometheus
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

ACCEPTANCE_PROFILE = FaultProfile(
    loss_probability=0.05,
    corruption_probability=0.02,
    duplication_probability=0.02,
    outages=(OutageWindow(5e6, 55e6),),  # one 50 ms outage at t=5 ms
)


def _faulty_session(
    profile,
    seed=7,
    max_attempts=3,
    tuning=ArqTuning(window=1),
    needs_rng=None,
    readback_batch_frames=1,
):
    # These scenarios pin the (window=1, batch=1) shape by default: at
    # one payload per round trip the run is long enough for its frames
    # to collide with the configured faults and outage.  The pipelined
    # defaults finish in far fewer frames, so the same seeds would sail
    # past the fault windows — pipelined fault coverage gets its own
    # scenario below.
    system = build_sacha_system(SIM_SMALL)
    provisioned, record = provision_device(system, "prv-faulty", seed=seed)
    simulator = Simulator()
    rng = DeterministicRng(seed + 1)
    stochastic = needs_rng if needs_rng is not None else profile.is_stochastic
    model = FaultModel(profile, rng.fork("faults") if stochastic else None)
    channel = Channel(
        simulator, LatencyModel(base_ns=5_000.0), fault_model=model
    )
    verifier = SachaVerifier(
        record.system, record.mac_key, DeterministicRng(seed + 2)
    )
    session = NetworkAttestationSession(
        simulator,
        channel,
        provisioned.prover,
        verifier,
        DeterministicRng(seed + 3),
        arq_tuning=tuning,
        max_attempts=max_attempts,
        readback_batch_frames=readback_batch_frames,
    )
    return session, model


class TestAcceptanceScenario:
    def test_combined_faults_reach_definite_verdict(self):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            session, model = _faulty_session(ACCEPTANCE_PROFILE)
            result = session.run()
        assert result.report.verdict in (
            Verdict.ACCEPT,
            Verdict.REJECT,
            Verdict.INCONCLUSIVE,
        )
        # This seed rides the faults out: the honest device is accepted.
        assert result.report.verdict is Verdict.ACCEPT
        assert model.counters.lost > 0
        assert session.total_retransmissions > 0
        # The retransmission/backoff telemetry is exported.
        assert (
            registry.counter("sacha_arq_retransmissions_total").value() > 0
        )
        text = to_prometheus(registry)
        assert "sacha_arq_retransmissions_total" in text
        assert "sacha_net_faults_total" in text
        assert "sacha_session_outcomes_total" in text

    def test_outage_window_is_exercised(self):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            session, model = _faulty_session(
                FaultProfile(
                    loss_probability=0.05,
                    corruption_probability=0.02,
                    duplication_probability=0.02,
                    outages=(OutageWindow(1e6, 51e6),),
                )
            )
            result = session.run()
        assert result.report.verdict is not Verdict.INCONCLUSIVE
        assert model.counters.outage_dropped > 0

    def test_identical_seed_reproduces_identical_telemetry(self):
        def run_once():
            registry = MetricsRegistry(enabled=True)
            with use_registry(registry):
                session, model = _faulty_session(ACCEPTANCE_PROFILE)
                result = session.run()
            return (
                registry_snapshot(registry),
                model.counters.as_dict(),
                session.total_retransmissions,
                result.report.verdict,
                result.attempts,
            )

        assert run_once() == run_once()


class TestPipelinedResilience:
    """The pipelined defaults (window > 1, batched readback) must ride
    out the same fault classes as the one-frame stop-and-wait shape."""

    PIPELINED_PROFILE = FaultProfile(
        loss_probability=0.15,
        corruption_probability=0.05,
        duplication_probability=0.05,
    )

    def _pipelined_session(self):
        # The session defaults (window 8, 256-frame batches): this
        # scenario exists precisely to run the pipelined path under
        # faults.
        return _faulty_session(
            self.PIPELINED_PROFILE,
            tuning=ArqTuning(),
            readback_batch_frames=256,
        )

    def test_pipelined_defaults_survive_faults(self):
        session, model = self._pipelined_session()
        result = session.run()
        assert result.report.verdict is Verdict.ACCEPT
        assert model.counters.lost > 0
        assert session.total_retransmissions > 0

    def test_pipelined_faulty_run_is_seed_reproducible(self):
        def run_once():
            session, model = self._pipelined_session()
            result = session.run()
            return (
                model.counters.as_dict(),
                session.total_retransmissions,
                result.report.verdict,
                result.attempts,
                result.duration_ns,
                result.report.nonce,
            )

        assert run_once() == run_once()


class TestSessionDegradation:
    def test_dead_link_is_inconclusive_not_a_crash(self):
        session, _ = _faulty_session(
            FaultProfile(loss_probability=0.97),
            seed=11,
            max_attempts=2,
            tuning=ArqTuning(
                initial_timeout_ns=100_000.0,
                min_timeout_ns=50_000.0,
                window=1,
                max_retries=6,
            ),
        )
        result = session.run()
        report = result.report
        assert report.verdict is Verdict.INCONCLUSIVE
        assert not report.accepted
        assert result.attempts == 2
        assert report.failure is not None
        assert report.failure.kind in ("link_down", "drained")
        assert report.failure.attempts == 2
        assert "INCONCLUSIVE" in report.explain()

    def test_session_retry_recovers_after_outage(self):
        """Attempts started inside the outage give up; the session keeps
        re-running with fresh nonces until one lands after the window."""
        session, model = _faulty_session(
            FaultProfile(outages=(OutageWindow(0.0, 2e7),)),  # 20 ms dead
            seed=12,
            max_attempts=40,
            tuning=ArqTuning(
                initial_timeout_ns=100_000.0,
                min_timeout_ns=50_000.0,
                window=1,
                max_retries=4,
            ),
        )
        result = session.run()
        assert result.report.verdict is Verdict.ACCEPT
        assert result.attempts > 1
        assert model.counters.outage_dropped > 0


class _DyingProver:
    """Delegating wrapper whose link 'dies' after a set number of
    commands — permanently (swarm member) or once (monitor hiccup)."""

    def __init__(self, inner, fail_after, permanent=True):
        self._inner = inner
        self._fail_after = fail_after
        self._permanent = permanent
        self._calls = 0
        self._fired = False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def handle_command(self, command):
        self._calls += 1
        should_fire = self._calls > self._fail_after and (
            self._permanent or not self._fired
        )
        if should_fire:
            self._fired = True
            raise NetworkError("link to device lost mid-run")
        return self._inner.handle_command(command)


def _member(device_id, seed):
    system = build_sacha_system(SIM_SMALL)
    provisioned, record = provision_device(system, device_id, seed=seed)
    verifier = SachaVerifier(
        record.system, record.mac_key, DeterministicRng(seed + 1)
    )
    return provisioned.prover, verifier


class TestSwarmResilience:
    def test_member_dying_mid_sweep_still_yields_full_report(self):
        members = []
        for index in range(3):
            prover, verifier = _member(f"dev-{index}", seed=300 + 10 * index)
            if index == 1:
                prover = _DyingProver(prover, fail_after=5)
            members.append(
                SwarmMember(
                    device_id=f"dev-{index}", prover=prover, verifier=verifier
                )
            )
        swarm = SwarmAttestation(members)
        report = swarm.run(DeterministicRng(77))
        # The sweep covered every member despite the mid-run death.
        assert sorted(report.results) == ["dev-0", "dev-1", "dev-2"]
        assert report.healthy == ["dev-0", "dev-2"]
        assert report.inconclusive == ["dev-1"]
        assert report.compromised == []
        assert not report.all_healthy
        failed = report.results["dev-1"]
        assert failed.verdict is Verdict.INCONCLUSIVE
        assert failed.failure.kind == "NetworkError"
        assert "dev-1: inconclusive" in report.explain()

    def test_callback_sees_the_inconclusive_member(self):
        prover, verifier = _member("solo", seed=400)
        swarm = SwarmAttestation(
            [
                SwarmMember(
                    device_id="solo",
                    prover=_DyingProver(prover, fail_after=0),
                    verifier=verifier,
                )
            ]
        )
        seen = {}
        swarm.run(
            DeterministicRng(78),
            on_result=lambda device_id, rep: seen.__setitem__(
                device_id, rep.verdict
            ),
        )
        assert seen == {"solo": Verdict.INCONCLUSIVE}


class TestMonitorResilience:
    def test_one_failing_run_does_not_kill_the_monitor(self):
        prover, verifier = _member("mon", seed=500)
        flaky = _DyingProver(prover, fail_after=3, permanent=False)
        simulator = Simulator()
        monitor = AttestationMonitor(
            simulator,
            flaky,
            verifier,
            period_ns=120e9,
            rng=DeterministicRng(501),
        )
        monitor.start(runs=3)
        simulator.run()
        history = monitor.history
        assert history.runs == 3
        assert history.inconclusive_runs == 1
        assert history.rejections == 0
        assert history.samples[0].verdict == "inconclusive"
        assert "NetworkError" in history.samples[0].failure_detail
        # The aborted run reset the prover: the following periods accept.
        assert [s.verdict for s in history.samples[1:]] == ["accept", "accept"]
