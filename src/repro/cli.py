"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``attest [--device PART] [--seed N] [--tamper]`` — provision a device,
  run one attestation, print the report; any resilience flag
  (``--loss``, ``--fault-profile``, ``--arq-window``,
  ``--readback-batch-frames``, ``--max-attempts``) runs it over the
  simulated network with fault injection, ARQ, batched readback and
  session retry, and exits 2 on an ``inconclusive`` verdict;
* ``tables`` — regenerate Tables 2, 3 and 4 plus the JTAG reference;
* ``security [--device PART]`` — run the Section-7.2 threat sweep;
* ``trace [--device PART]`` — print the Figure-9 protocol trace;
* ``experiment <ID>`` — run one registered experiment (E1-table2, ...);
* ``metrics [--device PART]`` — observability demo: attest with metrics,
  spans and structured logging enabled, print the collected evidence;
* ``lint [PATHS]`` — run sachalint's six rules over PATHS (default: the
  installed tree) and exit 1 on any finding (see docs/STATIC_ANALYSIS.md);
* ``obs report|flame|health`` — offline telemetry analysis: merge span
  dumps into one profile report, export a collapsed-stack
  flamegraph, or evaluate SLO health rules over registry snapshots;
* ``list`` — list devices and experiments.

``attest``, ``trace``, ``experiment`` and ``metrics`` take observability
options: ``--metrics-out FILE`` (Prometheus text exposition),
``--spans-out FILE`` (JSON-lines span log), ``--snapshot-out FILE``
(lossless JSON registry snapshot for ``obs health`` and offline
merging), ``--log-json`` (structured JSON logs plus the span log on
stderr) and ``--log-level``.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.experiments import (
    EXPERIMENTS,
    e1_table2,
    e2_table3,
    e3_table4,
    e4_jtag_reference,
    e5_security_evaluation,
    e6_protocol_trace,
)
from repro.cache import get_artifact_cache
from repro.core.protocol import SessionOptions, run_attestation
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.fpga.device import catalog, get_part
from repro.obs import log as obs_log
from repro.obs.exporters import to_prometheus, write_jsonl, write_prometheus
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.spans import render_span_tree
from repro.utils.rng import DeterministicRng


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: The transport of a networked ``attest`` run for each resilience flag
#: not given.  The flags themselves default to ``None``: giving any flag
#: of the resilience group is what selects the networked run.
_NETWORK_DEFAULTS = {
    "arq_window": 8,
    "readback_batch_frames": 256,
    "max_attempts": 3,
}


def _add_device_option(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument(
        "--device",
        default=default,
        choices=list(catalog()),
        help=f"device part (default: {default})",
    )


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the run's metrics to FILE in Prometheus text format",
    )
    group.add_argument(
        "--spans-out",
        metavar="FILE",
        default=None,
        help="write the structured span log to FILE as JSON lines",
    )
    group.add_argument(
        "--snapshot-out",
        metavar="FILE",
        default=None,
        help="write a lossless JSON registry snapshot to FILE "
        "(consumed by 'repro obs health' and offline merging)",
    )
    group.add_argument(
        "--log-json",
        action="store_true",
        help="structured logs (and the span log) as JSON lines on stderr",
    )
    group.add_argument(
        "--log-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
        help="minimum structured log level (default: info)",
    )
    group.add_argument(
        "--span-frames",
        action="store_true",
        help="emit one span per readback frame (large logs on big parts)",
    )


def _obs_requested(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "metrics_out", None)
        or getattr(args, "spans_out", None)
        or getattr(args, "snapshot_out", None)
        or getattr(args, "log_json", False)
        or args.command == "metrics"
    )


def _setup_obs(args: argparse.Namespace):
    """Install an enabled registry + log handler when any obs flag is set.

    Returns ``(registry, previous_registry)`` or ``None``.
    """
    if not _obs_requested(args):
        return None
    obs_log.configure(
        level=getattr(logging, args.log_level.upper()),
        json_output=args.log_json,
    )
    registry = MetricsRegistry(enabled=True)
    return registry, set_registry(registry)


def _finish_obs(args: argparse.Namespace, scope) -> None:
    """Export collected evidence, then restore the previous registry."""
    if scope is None:
        return
    registry, previous = scope
    try:
        if args.metrics_out:
            write_prometheus(registry, args.metrics_out)
        if args.spans_out:
            write_jsonl(
                (record.to_dict() for record in registry.spans), args.spans_out
            )
        if getattr(args, "snapshot_out", None):
            import json

            from repro.obs.exporters import registry_snapshot

            Path(args.snapshot_out).write_text(
                json.dumps(registry_snapshot(registry), sort_keys=True)
                + "\n",
                encoding="utf-8",
            )
        if args.log_json and not args.spans_out:
            span_logger = obs_log.get_logger("repro.obs.spans")
            for record in registry.spans:
                fields = record.to_dict()
                fields.pop("record", None)
                span_logger.info("span", **fields)
    finally:
        set_registry(previous)
        obs_log.reset()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SACHa: self-attestation of configurable hardware",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    attest = commands.add_parser("attest", help="run one attestation")
    _add_device_option(attest, "SIM-MEDIUM")
    attest.add_argument("--seed", type=int, default=2019)
    attest.add_argument(
        "--tamper",
        action="store_true",
        help="flip one static-frame bit before attesting",
    )
    resilience = attest.add_argument_group(
        "resilience (runs the protocol over the simulated network)"
    )
    resilience.add_argument(
        "--loss",
        type=float,
        default=None,
        metavar="P",
        help="per-frame loss probability on the channel (implies networked run)",
    )
    resilience.add_argument(
        "--fault-profile",
        default=None,
        metavar="SPEC",
        help="named profile (clean/lossy/noisy/harsh) or key=value spec, "
        'e.g. "loss=0.05,corrupt=0.02,dup=0.02,outage=5ms+50ms"',
    )
    resilience.add_argument(
        "--arq-window",
        type=_positive_int,
        default=None,
        metavar="N",
        help="ARQ send-window ceiling; the AIMD window halves on timeouts "
        "and regrows on clean ACKs; 1 = stop-and-wait "
        f"(default: {_NETWORK_DEFAULTS['arq_window']})",
    )
    resilience.add_argument(
        "--readback-batch-frames",
        type=_positive_int,
        default=None,
        metavar="N",
        help="frame indices per ICAP_readback_batch command; 1 = the "
        "paper's per-frame readback step "
        f"(default: {_NETWORK_DEFAULTS['readback_batch_frames']})",
    )
    resilience.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="session-level retries (fresh nonce) before giving up "
        f"(default: {_NETWORK_DEFAULTS['max_attempts']})",
    )
    _add_obs_options(attest)

    commands.add_parser("tables", help="regenerate Tables 2-4 + JTAG reference")

    security = commands.add_parser("security", help="Section-7.2 threat sweep")
    _add_device_option(security, "SIM-MEDIUM")

    trace = commands.add_parser("trace", help="Figure-9 protocol trace")
    _add_device_option(trace, "SIM-SMALL")
    _add_obs_options(trace)

    experiment = commands.add_parser("experiment", help="run one experiment")
    experiment.add_argument("id", choices=sorted(EXPERIMENTS))
    _add_obs_options(experiment)

    metrics = commands.add_parser(
        "metrics",
        help="observability demo: attest honest + tampered, print evidence",
    )
    _add_device_option(metrics, "SIM-SMALL")
    metrics.add_argument("--seed", type=int, default=2019)
    _add_obs_options(metrics)

    lint = commands.add_parser(
        "lint",
        help="run sachalint, the domain-aware static analysis pass",
    )
    from repro.lint import cli as lint_cli

    lint_cli.add_arguments(lint)

    fleet = commands.add_parser(
        "fleet",
        help="fleet control plane: persistent registry + sweeps",
    )
    from repro.fleet import cli as fleet_cli

    fleet_cli.add_arguments(fleet)

    obs = commands.add_parser(
        "obs",
        help="offline telemetry analysis: span profiling and SLO health",
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    report = obs_commands.add_parser(
        "report",
        help="merge span dumps (JSONL) into one profile report",
    )
    report.add_argument(
        "files", nargs="+", metavar="SPANS_JSONL", help="span dump files"
    )
    flame = obs_commands.add_parser(
        "flame",
        help="export merged span dumps as collapsed stacks "
        "(flamegraph.pl / speedscope)",
    )
    flame.add_argument(
        "files", nargs="+", metavar="SPANS_JSONL", help="span dump files"
    )
    flame.add_argument(
        "-o",
        "--out",
        default=None,
        metavar="FILE",
        help="write collapsed stacks to FILE (default: stdout)",
    )
    health = obs_commands.add_parser(
        "health",
        help="evaluate SLO rules over registry snapshots "
        "(exit 0 OK, 1 WARN, 2 CRIT)",
    )
    health.add_argument(
        "snapshots",
        nargs="+",
        metavar="SNAPSHOT_JSON",
        help="registry snapshot files (several merge into one fleet view)",
    )

    commands.add_parser("list", help="list devices and experiments")
    return parser


def _network_transport(args: argparse.Namespace) -> Optional[Dict[str, int]]:
    """The networked run's transport settings, or ``None`` to run in memory."""
    networked = args.loss is not None or args.fault_profile is not None
    transport = {}
    for dest, default in _NETWORK_DEFAULTS.items():
        value = getattr(args, dest)
        networked = networked or value is not None
        transport[dest] = default if value is None else value
    return transport if networked else None


def _command_attest(args: argparse.Namespace) -> int:
    system = get_artifact_cache().get_system(args.device)
    provisioned, record = provision_device(system, "cli-board", seed=args.seed)
    if args.tamper:
        bit = system.first_unmasked_static_bit()
        provisioned.board.fpga.memory.flip_bit(
            bit.frame_index, bit.word_index, bit.bit_index
        )
        print(f"(tampered static frame {bit.frame_index})")
    verifier = SachaVerifier(
        record.system, record.mac_key, DeterministicRng(args.seed + 1)
    )
    transport = _network_transport(args)
    if transport is not None:
        return _attest_over_network(args, transport, provisioned, verifier)
    result = run_attestation(
        provisioned.prover,
        verifier,
        DeterministicRng(args.seed + 2),
        SessionOptions(span_frames=args.span_frames),
    )
    print(result.report.explain())
    return 0 if result.report.accepted == (not args.tamper) else 1


def _attest_over_network(args, transport, provisioned, verifier) -> int:
    """Attest through the simulated channel under an injected fault profile."""
    import dataclasses

    from repro.core.net_session import NetworkAttestationSession
    from repro.net.arq import ArqTuning
    from repro.net.channel import Channel, LatencyModel
    from repro.net.faults import FaultModel, FaultProfile
    from repro.sim.events import Simulator

    profile = (
        FaultProfile.parse(args.fault_profile)
        if args.fault_profile
        else FaultProfile()
    )
    if args.loss is not None:
        profile = dataclasses.replace(profile, loss_probability=args.loss)
    rng = DeterministicRng(args.seed + 3)
    fault_model = (
        FaultModel(profile, rng.fork("faults")) if profile.is_active else None
    )
    simulator = Simulator()
    channel = Channel(
        simulator, LatencyModel(base_ns=5_000.0), fault_model=fault_model
    )
    session = NetworkAttestationSession(
        simulator,
        channel,
        provisioned.prover,
        verifier,
        rng.fork("session"),
        arq_tuning=ArqTuning(window=transport["arq_window"]),
        max_attempts=transport["max_attempts"],
        readback_batch_frames=transport["readback_batch_frames"],
    )
    result = session.run()
    print(result.report.explain())
    if fault_model is not None:
        injected = ", ".join(
            f"{kind}={count}"
            for kind, count in fault_model.counters.as_dict().items()
            if count
        )
        print(f"faults: {injected or 'none'}")
    print(
        f"attempts: {result.attempts}, "
        f"retransmissions: {session.total_retransmissions}"
    )
    if result.report.inconclusive:
        return 2
    return 0 if result.report.accepted == (not args.tamper) else 1


def _command_tables(_: argparse.Namespace) -> int:
    ok = True
    table2 = e1_table2()
    table3 = e2_table3()
    table4 = e3_table4()
    for rendered in (table2.rendered, table3.rendered, table4.rendered,
                     e4_jtag_reference().rendered):
        print(rendered)
        print()
    ok = table2.matches_paper and table3.matches_paper
    ok = ok and table4.theoretical_matches and table4.measured_matches
    return 0 if ok else 1


def _command_security(args: argparse.Namespace) -> int:
    result = e5_security_evaluation(get_part(args.device))
    print(result.rendered)
    print()
    for outcome in result.outcomes:
        print("  *", outcome.explain())
    return 0 if result.all_defenses_hold else 1


def _command_trace(args: argparse.Namespace) -> int:
    result = e6_protocol_trace(get_part(args.device))
    print(result.rendered)
    return 0 if result.accepted else 1


def _command_experiment(args: argparse.Namespace) -> int:
    result = EXPERIMENTS[args.id]()
    rendered = getattr(result, "rendered", None)
    print(rendered if rendered is not None else result)
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    """Observability demo: one honest + one tampered run, evidence printed.

    The honest run populates the accept counters and the span tree; the
    tampered run exercises the reject path, so the exposition shows both
    ``result`` label values.
    """
    registry = get_registry()  # enabled by _setup_obs for this command
    options = SessionOptions(record_trace=True, span_frames=args.span_frames)
    accepted = True
    for tamper in (False, True):
        system = get_artifact_cache().get_system(args.device)
        provisioned, record = provision_device(
            system, f"metrics-demo-{int(tamper)}", seed=args.seed + int(tamper)
        )
        if tamper:
            bit = system.first_unmasked_static_bit()
            provisioned.board.fpga.memory.flip_bit(
                bit.frame_index, bit.word_index, bit.bit_index
            )
        verifier = SachaVerifier(
            record.system, record.mac_key, DeterministicRng(args.seed + 10)
        )
        result = run_attestation(
            provisioned.prover,
            verifier,
            DeterministicRng(args.seed + 20),
            options,
        )
        accepted = accepted and (result.report.accepted == (not tamper))
    print("== Prometheus exposition ==")
    print(to_prometheus(registry), end="")
    print("== span tree ==")
    print(render_span_tree(registry.spans))
    print("== trace (JSONL, first 5 lines) ==")
    jsonl = result.report.trace.to_jsonl().splitlines()
    print("\n".join(jsonl[:5]))
    return 0 if accepted else 1


def _command_obs(args: argparse.Namespace) -> int:
    """Offline telemetry analysis over span dumps and snapshots."""
    import json

    from repro.obs.aggregate import merge_snapshots
    from repro.obs.exporters import registry_snapshot
    from repro.obs.health import evaluate_health, health_exit_code
    from repro.obs.profile import render_report, to_collapsed_stacks
    from repro.obs.trace import load_span_dump, merge_span_dumps

    if args.obs_command in ("report", "flame"):
        spans = merge_span_dumps(
            [load_span_dump(path) for path in args.files]
        )
        if args.obs_command == "report":
            print(render_report(spans), end="")
            return 0
        collapsed = to_collapsed_stacks(spans)
        if args.out:
            Path(args.out).write_text(collapsed, encoding="utf-8")
            print(
                f"wrote {len(collapsed.splitlines())} stacks to {args.out}"
            )
        else:
            print(collapsed, end="")
        return 0
    snapshots = [
        json.loads(Path(path).read_text(encoding="utf-8"))
        for path in args.snapshots
    ]
    snapshot = (
        snapshots[0]
        if len(snapshots) == 1
        else registry_snapshot(merge_snapshots(snapshots))
    )
    report = evaluate_health(snapshot)
    print(report.explain())
    return health_exit_code(report)


def _command_lint(args: argparse.Namespace) -> int:
    from repro.lint import cli as lint_cli

    return lint_cli.run(args)


def _command_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import cli as fleet_cli

    return fleet_cli.run(args)


def _command_list(_: argparse.Namespace) -> int:
    print("devices:")
    for name in catalog():
        part = get_part(name)
        print(
            f"  {name}: {part.total_frames} frames x {part.words_per_frame} "
            f"words, {part.clb_count} CLB, {part.bram_count} BRAM"
        )
    print("experiments:")
    for identifier in sorted(EXPERIMENTS):
        print(f"  {identifier}")
    return 0


_HANDLERS = {
    "attest": _command_attest,
    "tables": _command_tables,
    "security": _command_security,
    "trace": _command_trace,
    "experiment": _command_experiment,
    "metrics": _command_metrics,
    "lint": _command_lint,
    "fleet": _command_fleet,
    "obs": _command_obs,
    "list": _command_list,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.errors import ReproError

    try:
        scope = _setup_obs(args)
        try:
            status = _HANDLERS[args.command](args)
        finally:
            try:
                _finish_obs(args, scope)
            except OSError as exc:
                print(
                    f"repro: error writing observability output: {exc}",
                    file=sys.stderr,
                )
                return 1
    except ReproError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
