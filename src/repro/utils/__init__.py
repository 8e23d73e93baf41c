"""Shared low-level utilities: bit manipulation, CRCs, RNG, units."""

from repro.utils.bitops import (
    bit_count,
    bytes_to_words,
    get_bit,
    hamming_distance,
    rotl32,
    set_bit,
    words_to_bytes,
    xor_bytes,
)
from repro.utils.crc import Crc32, XilinxBitstreamCrc, crc32
from repro.utils.rng import DeterministicRng
from repro.utils.secret import SecretBytes, redact
from repro.utils.units import MHZ, format_bytes, format_time_ns, period_ns

__all__ = [
    "bit_count",
    "bytes_to_words",
    "get_bit",
    "hamming_distance",
    "rotl32",
    "set_bit",
    "words_to_bytes",
    "xor_bytes",
    "Crc32",
    "XilinxBitstreamCrc",
    "crc32",
    "DeterministicRng",
    "SecretBytes",
    "redact",
    "MHZ",
    "format_bytes",
    "format_time_ns",
    "period_ns",
]
