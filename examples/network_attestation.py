#!/usr/bin/env python
"""Attestation as real traffic on a simulated Ethernet link.

Runs the protocol through the network substrate — every command and
response is an Ethernet frame crossing a channel with serialization and
latency — and shows:

* how the end-to-end duration scales with per-hop latency (why the
  paper measures 28.5 s against a 1.443 s theoretical bound);
* a man-in-the-middle tap that rewrites one readback response, fixing
  up the link CRC so the ARQ accepts it, being caught by the MAC
  comparison at the paper's one-frame shape and at the pipelined one.

Run:  python examples/network_attestation.py
"""

import zlib

from repro import DeterministicRng, SIM_SMALL, build_sacha_system
from repro.core import NetworkAttestationSession, SachaVerifier, provision_device
from repro.net.arq import ArqTuning
from repro.net.channel import Channel, LatencyModel
from repro.net.messages import OPCODE_READBACK_BATCH_RESPONSE
from repro.sim.events import Simulator

#: ARQ DATA bytes before the SACHa message: type(1) + sequence(4).  A
#: little-endian CRC-32 over both ends each frame.
LINK_HEADER_BYTES = 5
#: opcode(1) + base_slot(4) + count(2) + length(4) before the frame data.
BATCH_RESPONSE_HEADER_BYTES = 11


def run_session(latency_ns: float, seed: int = 11, tap=None, window=1, batch=1):
    system = build_sacha_system(SIM_SMALL)
    provisioned, record = provision_device(system, "net-board", seed=seed)
    simulator = Simulator()
    channel = Channel(simulator, LatencyModel(base_ns=latency_ns))
    if tap is not None:
        channel.add_tap(tap)
    verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(seed + 1))
    # By default one frame per readback command and one payload in
    # flight at a time: every step waits a round trip, the shape the
    # paper's timing argument describes.
    session = NetworkAttestationSession(
        simulator, channel, provisioned.prover, verifier, DeterministicRng(seed + 2),
        arq_tuning=ArqTuning(window=window), readback_batch_frames=batch,
    )
    return session.run()


def main() -> None:
    print("=== Latency sweep (honest prover) ===\n")
    print(f"{'one-way latency':>18}  {'duration':>12}  verdict")
    for latency_us in (1, 10, 100, 500, 2_000):
        result = run_session(latency_us * 1_000.0)
        verdict = "attested" if result.report.accepted else "REJECTED"
        print(
            f"{latency_us:>15} us  {result.duration_ns / 1e6:>9.2f} ms  {verdict}"
        )

    print(
        "\nThe duration is dominated by per-command round trips "
        f"(the paper's 28.5 s vs 1.443 s at full scale)."
    )

    print("\n=== Man-in-the-middle rewriting one response ===\n")
    for window, batch in ((1, 1), (8, 256)):
        shape = f"window {window}, batch {batch}"
        state = {"rewritten": False}

        def mitm(time_ns, direction, frame):
            body = bytearray(frame.payload[:-4])
            data = LINK_HEADER_BYTES + BATCH_RESPONSE_HEADER_BYTES
            if (
                direction == "prv->vrf"
                and not state["rewritten"]
                and len(body) > data
                and body[LINK_HEADER_BYTES] == OPCODE_READBACK_BATCH_RESPONSE
            ):
                body[data] ^= 0x80
                state["rewritten"] = True
                print(
                    f"  [tap] flipped a bit in a readback response at "
                    f"t={time_ns:.0f} ns and fixed up the link CRC"
                )
                crc = zlib.crc32(body).to_bytes(4, "little")
                return frame._replace(payload=bytes(body) + crc)
            return None

        result = run_session(10_000.0, seed=22, tap=mitm, window=window, batch=batch)
        verdict = (
            "attested (BAD!)" if result.report.accepted else "REJECTED, as it must be"
        )
        print(f"  ARQ ({shape}) verdict with MITM: {verdict}")
        print(f"  ARQ ({shape}) MAC valid: {result.report.mac_valid}\n")


if __name__ == "__main__":
    main()
