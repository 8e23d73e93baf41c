"""``repro fleet`` — the control plane's ops surface.

Subcommands (all take ``--db PATH``, the SQLite registry file):

* ``enroll``  — provision N simulated devices and persist their records
  (part, seed, key mode, key material); ``--tamper`` marks the batch as
  compromised so sweeps exercise the REJECT path;
* ``attest``  — run one sweep over the registry (priority selection:
  previously-inconclusive and stale devices first) and exit with the
  worst per-device outcome: 0 all-accept, 2 any-inconclusive, 1
  any-reject — the single-device CLI contract lifted to the fleet;
* ``status``  — device table with last verdicts, fleet-wide verdict
  totals, and a telemetry rollup of the last sweep's stored snapshot;
* ``history`` — persisted attestation rows, newest first;
* ``health``  — evaluate the SLO rules over the last sweep's snapshot
  (exit 0 OK, 1 WARN, 2 CRIT).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path
from typing import Optional

from repro.fleet.controller import FleetController
from repro.fleet.store import DeviceRecord, FleetStore
from repro.utils.units import format_time_ns


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``fleet`` subcommand tree to ``parser``."""
    commands = parser.add_subparsers(dest="fleet_command", required=True)

    def add_db(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--db",
            required=True,
            metavar="PATH",
            help="SQLite fleet registry file (created on first use)",
        )

    enroll = commands.add_parser(
        "enroll", help="provision and register simulated devices"
    )
    add_db(enroll)
    from repro.fpga.device import catalog

    enroll.add_argument(
        "--device",
        default="SIM-SMALL",
        choices=list(catalog()),
        help="device part for this batch (default: SIM-SMALL)",
    )
    enroll.add_argument(
        "--count", type=int, default=1, metavar="N",
        help="devices to enroll (default: 1)",
    )
    enroll.add_argument(
        "--seed", type=int, default=2019, metavar="BASE",
        help="provisioning seed base; device i uses BASE+i (default: 2019)",
    )
    enroll.add_argument(
        "--key-mode", default="puf", choices=["puf", "register"],
        help="key provisioning mode (default: puf)",
    )
    enroll.add_argument(
        "--prefix", default="dev", metavar="NAME",
        help="device id prefix (default: dev)",
    )
    enroll.add_argument(
        "--tamper", action="store_true",
        help="mark this batch compromised: one static frame bit is "
        "flipped on every re-materialization, so sweeps REJECT them",
    )

    attest = commands.add_parser(
        "attest", help="run one attestation sweep over the registry"
    )
    add_db(attest)
    attest.add_argument(
        "--seed", type=int, default=2019,
        help="sweep seed: per-device RNGs fork from it (default: 2019)",
    )
    attest.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="attest at most N devices, highest-need first (default: all)",
    )
    attest.add_argument(
        "--fault-profile", default=None, metavar="SPEC",
        help="named profile or key=value spec for every device's channel",
    )
    attest.add_argument(
        "--loss", type=float, default=None, metavar="P",
        help="per-frame loss probability (shorthand fault profile)",
    )
    attest.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="per-device session retries before INCONCLUSIVE (default: 3)",
    )
    attest.add_argument(
        "--snapshot-out",
        dest="fleet_snapshot_out",
        default=None,
        metavar="FILE",
        help="also write the sweep's registry snapshot to FILE",
    )

    status = commands.add_parser(
        "status", help="device table, verdict totals, last-sweep telemetry"
    )
    add_db(status)

    history = commands.add_parser(
        "history", help="persisted attestation rows, newest first"
    )
    add_db(history)
    history.add_argument(
        "--device", default=None, metavar="ID", help="one device's history"
    )
    history.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show at most N rows (default: all)",
    )

    health = commands.add_parser(
        "health",
        help="SLO rules over the last sweep snapshot (exit 0/1/2)",
    )
    add_db(health)


def run(args: argparse.Namespace) -> int:
    handler = {
        "enroll": _command_enroll,
        "attest": _command_attest,
        "status": _command_status,
        "history": _command_history,
        "health": _command_health,
    }[args.fleet_command]
    with FleetStore(args.db) as store:
        return handler(args, store)


def _command_enroll(args: argparse.Namespace, store: FleetStore) -> int:
    from repro.core.provisioning import materialize_device

    if args.count < 1:
        print("fleet: --count must be >= 1")
        return 1
    start = store.device_count
    for index in range(args.count):
        device_id = f"{args.prefix}-{start + index:04d}"
        seed = args.seed + start + index
        _, record = materialize_device(
            args.device, device_id, seed=seed, key_mode=args.key_mode
        )
        store.enroll(
            DeviceRecord(
                device_id=device_id,
                part=args.device,
                seed=seed,
                key_mode=args.key_mode,
                key=record.mac_key,
                tampered=args.tamper,
            )
        )
        flag = " (tampered)" if args.tamper else ""
        print(f"enrolled {device_id}: {args.device} seed={seed}{flag}")
    print(f"fleet: {store.device_count} device(s) in {store.path}")
    return 0


def _parse_profile(args: argparse.Namespace):
    from repro.net.faults import FaultProfile

    profile: Optional[FaultProfile] = None
    text = ""
    if args.fault_profile:
        profile = FaultProfile.parse(args.fault_profile)
        text = args.fault_profile
    if args.loss is not None:
        profile = dataclasses.replace(
            profile or FaultProfile(), loss_probability=args.loss
        )
        text = (text + "," if text else "") + f"loss={args.loss}"
    return profile, text


def _command_attest(args: argparse.Namespace, store: FleetStore) -> int:
    profile, profile_text = _parse_profile(args)
    controller = FleetController(
        store,
        fault_profile=profile,
        profile_text=profile_text,
        max_attempts=args.max_attempts,
    )
    result = controller.attest(seed=args.seed, limit=args.limit)
    print(result.explain())
    counts = store.verdict_counts(result.sweep_id)
    print(
        f"sweep verdicts: accept={counts.get('accept', 0)} "
        f"reject={counts.get('reject', 0)} "
        f"inconclusive={counts.get('inconclusive', 0)}"
    )
    if args.fleet_snapshot_out:
        Path(args.fleet_snapshot_out).write_text(
            json.dumps(result.snapshot, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote sweep snapshot to {args.fleet_snapshot_out}")
    return result.exit_code


def _command_status(args: argparse.Namespace, store: FleetStore) -> int:
    devices = store.devices()
    sweeps = store.sweeps()
    completed = [sweep for sweep in sweeps if sweep.completed]
    print(
        f"fleet: {len(devices)} device(s), {len(completed)} completed "
        f"sweep(s) in {store.path}"
    )
    last = store.last_outcomes()
    for device in devices:
        outcome = last.get(device.device_id)
        if outcome is None:
            state = "never attested"
        else:
            state = f"{outcome.verdict} (sweep {outcome.sweep_id})"
        tampered = " tampered" if device.tampered else ""
        print(
            f"  {device.device_id}  {device.part} seed={device.seed} "
            f"key={device.key_mode}{tampered}  last: {state}"
        )
    counts = store.verdict_counts()
    print(
        f"verdict totals: accept={counts.get('accept', 0)} "
        f"reject={counts.get('reject', 0)} "
        f"inconclusive={counts.get('inconclusive', 0)}"
    )
    snapshot = store.latest_snapshot()
    if snapshot is not None:
        from repro.obs.aggregate import rollup_snapshot_by_label

        sessions = rollup_snapshot_by_label(
            snapshot, "sacha_session_outcomes_total", "verdict"
        )
        if sessions:
            rollup = " ".join(
                f"{verdict}={int(total)}"
                for verdict, total in sessions.items()
            )
            print(f"last sweep session outcomes: {rollup}")
    return 0


def _command_history(args: argparse.Namespace, store: FleetStore) -> int:
    rows = store.history(device_id=args.device, limit=args.limit)
    if not rows:
        print("no attestations recorded")
        return 0
    for row in rows:
        line = (
            f"#{row.attestation_id} sweep={row.sweep_id} "
            f"device={row.device_id} verdict={row.verdict} "
            f"attempts={row.attempts} "
            f"duration={format_time_ns(row.duration_ns)}"
        )
        if row.tag_hex:
            line += f" tag={row.tag_hex[:16]}"
        if row.failure_kind:
            line += f" failure={row.failure_kind}@{row.failure_stage}"
        if row.mismatched_frames:
            preview = ",".join(str(f) for f in row.mismatched_frames[:5])
            line += f" frames=[{preview}]"
        print(line)
    return 0


def _command_health(args: argparse.Namespace, store: FleetStore) -> int:
    from repro.obs.health import evaluate_health, health_exit_code

    snapshot = store.latest_snapshot()
    if snapshot is None:
        print("fleet health: no completed sweeps with a stored snapshot")
        return 1
    report = evaluate_health(snapshot)
    print(report.explain())
    return health_exit_code(report)
