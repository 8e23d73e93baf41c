"""Boot path of the paper's device: the configuration-word codec.

SACHa's prover boots its static partition from BootMem through
configuration logic that CRC-checks every (register, word) packet write.
On the XC6VLX240T that image writes 2,088 frames (169,137 words), and
every full-device set-up pays for it twice: the verifier side builds the
boot image, and the board parses, CRC-checks and loads it at power-on.

``test_xc6_boot_image_encode`` times ``static_bitstream().to_bytes()``
on a prebuilt system (writer, CRC fold, codec); ``test_xc6_power_on``
times ``Board.power_on()`` from a programmed BootMem (codec, loader,
CRC check, IDCODE check, ICAP writes).  Both assert the pinned boot
image and a complete, CRC-checked load.
"""

import hashlib

import pytest

from repro.core.provisioning import provision_device
from repro.design.sacha_design import build_sacha_system
from repro.fpga.device import XC6VLX240T

#: SHA-256 of the XC6VLX240T ``boot_image()``.
BOOT_IMAGE_SHA256 = "c92ee3d26ec77249a54bb5c0e027dcd636c357e6102b6645f5cf223f170e9ffb"
STATIC_FRAMES = 2_088


@pytest.fixture(scope="module")
def xc6_system():
    return build_sacha_system(XC6VLX240T)


def test_xc6_boot_image_encode(benchmark, xc6_system):
    image = benchmark(lambda: xc6_system.static_bitstream().to_bytes())
    assert hashlib.sha256(image).hexdigest() == BOOT_IMAGE_SHA256


def test_xc6_power_on(benchmark, xc6_system):
    provisioned, _ = provision_device(xc6_system, "bench-boot", seed=7)
    board = provisioned.board
    report = benchmark(board.power_on)
    assert report.crc_checks == 1
    assert report.frame_count == STATIC_FRAMES
    assert hashlib.sha256(board.boot_mem.read()).hexdigest() == BOOT_IMAGE_SHA256
