"""Boot images: pinned bytes, and a loader that fails closed.

The bitstream codec, writer and loader work on whole ``uint32`` arrays.
The pins (captured from the per-word implementation) fix the boot image
of every part and the XC6VLX240T configuration memory a provisioned
board boots into, under two hash seeds.

JustSTART (PAPERS.md) found an authentication bypass by fuzzing a
bitstream parser.  Here a boot image is whatever BootMem holds, so
arbitrary bytes and byte- and word-level mutations of a real SIM-SMALL
boot image go through ``Bitstream.from_bytes`` and
``BitstreamLoader.load``: only :class:`~repro.errors.ReproError`
subclasses may escape, and an image that loads writes only in-range
frames, exactly the frames its report lists.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design.sacha_design import build_sacha_system
from repro.errors import ReproError
from repro.fpga.bitstream import (
    SYNC_WORD,
    Bitstream,
    BitstreamHeader,
    BitstreamLoader,
    ConfigCommand,
    ConfigRegister,
    PacketOp,
    type1_header,
    type2_header,
)
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.device import SIM_SMALL
from repro.fpga.icap import Icap

#: SHA-256 of ``boot_image()`` per part.
BOOT_IMAGE_PINS = {
    "SIM-SMALL": "a449bf16d8ff464f33e9013cabbdc60d1d0f98c2d0435254d354cfdef1b4d294",
    "SIM-MEDIUM": "912687a7d637321be7afc19cd9efdac7cac9216f684d59f9b339feb025379011",
    "XC6VLX240T": "c92ee3d26ec77249a54bb5c0e027dcd636c357e6102b6645f5cf223f170e9ffb",
}
#: SHA-256 of the XC6VLX240T configuration memory after
#: ``provision_device(system, "boot-pin", seed=7)`` powers the board on.
BOOTED_MEMORY_PIN = "6dbf442e30d28f74cb245d99bc52ba77231b0d4487b574b11042b4d838a001d5"

_PIN_SCRIPT = """
import hashlib, json
from repro.core.provisioning import provision_device
from repro.design.sacha_design import build_sacha_system
from repro.fpga.device import get_part

digests = {}
for part in ("SIM-SMALL", "SIM-MEDIUM", "XC6VLX240T"):
    system = build_sacha_system(get_part(part))
    digests[part] = hashlib.sha256(system.boot_image()).hexdigest()
provisioned, _ = provision_device(system, "boot-pin", seed=7)
memory = provisioned.board.fpga.memory.snapshot()
digests["booted-memory"] = hashlib.sha256(memory).hexdigest()
print(json.dumps(digests))
"""


@pytest.mark.slow
@pytest.mark.parametrize("hash_seed", ["0", "123"])
def test_boot_pins_hold_across_hash_seeds(hash_seed):
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH", "")]))
    completed = subprocess.run(
        [sys.executable, "-c", _PIN_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(completed.stdout) == {
        **BOOT_IMAGE_PINS,
        "booted-memory": BOOTED_MEMORY_PIN,
    }


@pytest.fixture(scope="module")
def boot_image():
    return build_sacha_system(SIM_SMALL).boot_image()


def _load_fails_closed(data: bytes) -> None:
    icap = Icap(ConfigurationMemory(SIM_SMALL))
    try:
        report = BitstreamLoader(icap).load(Bitstream.from_bytes(data))
    except ReproError:
        return
    written = report.frames_written
    assert all(0 <= frame < SIM_SMALL.total_frames for frame in written)
    assert icap.stats.frames_written == len(written)
    untouched = np.ones(SIM_SMALL.total_frames, dtype=bool)
    untouched[written] = False
    assert not icap.memory.frames_array()[untouched].any()


def test_real_boot_image_loads(boot_image):
    report = BitstreamLoader(Icap(ConfigurationMemory(SIM_SMALL))).load(
        Bitstream.from_bytes(boot_image)
    )
    assert report.crc_checks == 1 and report.frames_written


@given(data=st.binary(max_size=512))
@settings(max_examples=300, deadline=None)
def test_arbitrary_bytes(data):
    _load_fails_closed(data)


@st.composite
def _byte_mutation(draw, image):
    """The image with a few byte flips, overwrites, cuts or insertions."""
    data = bytearray(image)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        position = draw(st.integers(min_value=0, max_value=len(data)))
        kind = draw(st.sampled_from(("flip", "set", "cut", "insert", "truncate")))
        if kind == "flip" and position < len(data):
            data[position] ^= 1 << draw(st.integers(min_value=0, max_value=7))
        elif kind == "set" and position < len(data):
            data[position] = draw(st.sampled_from((0x00, 0x01, 0x7F, 0x80, 0xFF)))
        elif kind == "cut":
            del data[position : position + draw(st.integers(1, 8))]
        elif kind == "insert":
            data[position:position] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "truncate":
            del data[position:]
    return bytes(data)


_REGISTERS = st.sampled_from([int(register) for register in ConfigRegister] + [31])


def _hostile_word():
    """Words the loader branches on, plus arbitrary ones."""
    return st.one_of(
        st.integers(0, 2**32 - 1),
        st.builds(
            lambda op, register, count: type1_header(op, register, count),
            st.sampled_from(list(PacketOp)),
            _REGISTERS,
            st.one_of(st.integers(0, 8), st.integers(0, 2047)),
        ),
        st.builds(
            lambda op, count: type2_header(op, count),
            st.sampled_from(list(PacketOp)),
            st.one_of(st.integers(0, 8), st.integers(0, 2**27 - 1)),
        ),
        st.sampled_from(
            [SYNC_WORD, 0xDEAD] + [int(command) for command in ConfigCommand]
        ),
    )


@st.composite
def _packet(draw):
    """One write packet, type-1 or type-1(0) + type-2, of hostile words."""
    op = draw(st.sampled_from(list(PacketOp)))
    register = draw(_REGISTERS)
    payload = draw(st.lists(_hostile_word(), max_size=8))
    if draw(st.booleans()):
        return [type1_header(op, register, len(payload))] + payload
    return [type1_header(op, register, 0), type2_header(op, len(payload))] + payload


@given(
    packets=st.lists(
        st.one_of(_packet(), st.lists(_hostile_word(), max_size=2)), max_size=12
    ),
    synced=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_hostile_packets_behind_a_valid_header(packets, synced):
    """Past the header and the sync word, every packet field is hostile."""
    body = [SYNC_WORD] if synced else []
    for words in packets:
        body.extend(words)
    header = BitstreamHeader("fuzz", SIM_SMALL.name).encode()
    _load_fails_closed(header + np.array(body, dtype=">u4").tobytes())


@st.composite
def _word_mutation(draw, image):
    """The image's words with a few replaced, inserted, deleted or duplicated."""
    parsed = Bitstream.from_bytes(image)
    words = parsed.words.tolist()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        position = draw(st.integers(min_value=0, max_value=len(words)))
        kind = draw(st.sampled_from(("replace", "insert", "delete", "duplicate")))
        if kind == "replace" and position < len(words):
            words[position] = draw(_hostile_word())
        elif kind == "insert":
            words.insert(position, draw(_hostile_word()))
        elif kind == "delete":
            del words[position : position + draw(st.integers(1, 4))]
        elif kind == "duplicate" and position < len(words):
            repeat = draw(st.integers(1, 8))
            words[position:position] = words[position : position + repeat]
    return Bitstream(parsed.header, words).to_bytes()


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_byte_mutated_boot_image(boot_image, data):
    _load_fails_closed(data.draw(_byte_mutation(boot_image)))


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_word_mutated_boot_image(boot_image, data):
    _load_fails_closed(data.draw(_word_mutation(boot_image)))
