"""SECDED Hamming(72, 64) error-correction codec.

Commodity flash (and much commodity DRAM) protects each 64-bit word
with 8 check bits: an extended Hamming code that corrects any single
bit error and detects any double bit error (SECDED). Radshield's
*reliability frontier* (§3.2) rests entirely on this property, so the
reproduction implements the real code rather than faking it with a
"corrupted" flag.

Layout
------
Codeword bit positions are indexed 0..71:

* position 0 holds the overall parity bit (the SECDED extension),
* positions 1, 2, 4, 8, 16, 32, 64 hold the Hamming parity bits,
* the remaining 64 positions hold data bits in ascending order.

Decoding computes the Hamming syndrome ``s`` (the XOR of the positions
of all set bits, restricted to positions >= 1) and the overall parity:

===========  ==============  =====================================
syndrome     overall parity  meaning
===========  ==============  =====================================
0            even            no error
0            odd             error in the overall parity bit
nonzero      odd             single-bit error at position ``s``
nonzero      even            double-bit error (detected, uncorrectable)
===========  ==============  =====================================

Both a scalar API (one word at a time) and a vectorized API operating
on ``numpy.uint64`` arrays are provided; the memory model uses the
vectorized path for bulk reads and writes.

Encoding is linear over GF(2): every check bit is the parity of a fixed
set of data bits, so ``encode(a ^ b) == encode(a) ^ encode(b)``. The
check byte of a word is therefore the XOR of one table entry per data
byte, each table built from :func:`encode` of the 64 one-bit words.
:func:`encode_array` uses those tables for arrays of fewer than
:data:`TABLE_MAX_WORDS` words (a cache line, a replica's output
record), where numpy's per-call overhead outweighs its popcounts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PARITY_POSITIONS = (1, 2, 4, 8, 16, 32, 64)
_DATA_POSITIONS = tuple(p for p in range(1, 72) if p not in _PARITY_POSITIONS)
assert len(_DATA_POSITIONS) == 64

#: For each Hamming parity bit 2**k, a 64-bit mask over *data bit indices*
#: selecting the data bits whose codeword position has bit k set.
_PARITY_MASKS: tuple[int, ...] = tuple(
    sum(
        1 << data_bit
        for data_bit, pos in enumerate(_DATA_POSITIONS)
        if pos & parity_pos
    )
    for parity_pos in _PARITY_POSITIONS
)

_PARITY_MASKS_U64 = np.array(_PARITY_MASKS, dtype=np.uint64)
#: The check-byte bit of each Hamming parity bit (bits 1..7).
_HAMMING_WEIGHTS = np.array([2 << k for k in range(7)], dtype=np.uint8)

#: Maps a Hamming syndrome (0..127) to the data-bit mask a single-bit
#: error at that codeword position flips: 0 for position 0, for the
#: parity positions, and for syndromes >= 72 (outside the codeword).
_SYNDROME_FLIP = np.zeros(128, dtype=np.uint64)
for _i, _pos in enumerate(_DATA_POSITIONS):
    _SYNDROME_FLIP[_pos] = 1 << _i


def _hamming_byte(words: np.ndarray) -> np.ndarray:
    """Check-byte bits 1..7 of each word: all 7 Hamming parities in
    one broadcast ``(..., 7)`` popcount."""
    parities = np.bitwise_count(words[..., None] & _PARITY_MASKS_U64) & np.uint8(1)
    return parities @ _HAMMING_WEIGHTS


def _parity_int(value: int) -> int:
    return bin(value).count("1") & 1


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one codeword."""

    data: int
    corrected: bool  # a single-bit error was repaired
    uncorrectable: bool  # a double-bit error was detected

    @property
    def clean(self) -> bool:
        return not self.corrected and not self.uncorrectable


def encode(data: int) -> int:
    """Encode a 64-bit data word into the 8 check bits.

    Returns the check byte: bit 0 is the overall parity, bits 1..7 the
    Hamming parity bits for positions 1, 2, 4, 8, 16, 32, 64.
    """
    data &= (1 << 64) - 1
    check = 0
    for k, mask in enumerate(_PARITY_MASKS):
        check |= _parity_int(data & mask) << (k + 1)
    # Overall parity covers every codeword bit: data bits plus the
    # seven Hamming bits just computed.
    overall = _parity_int(data) ^ _parity_int(check >> 1)
    check |= overall
    return check


def decode(data: int, check: int) -> DecodeResult:
    """Decode (and, if possible, correct) a stored word + check byte.

    ``data``/``check`` are the possibly-corrupted stored values.
    """
    data &= (1 << 64) - 1
    check &= 0xFF
    # Recomputed Hamming bits xor stored ones, bit k -> position 2**k.
    syndrome = (encode(data) ^ check) >> 1
    overall_mismatch = _parity_int(data) ^ _parity_int(check)

    if syndrome == 0:
        if not overall_mismatch:
            return DecodeResult(data, corrected=False, uncorrectable=False)
        # The overall parity bit itself flipped; data is intact.
        return DecodeResult(data, corrected=True, uncorrectable=False)
    if not overall_mismatch:
        # Nonzero syndrome with even overall parity: two bits flipped.
        return DecodeResult(data, corrected=False, uncorrectable=True)
    if syndrome >= 72:
        # Syndrome points outside the codeword: multi-bit corruption
        # that aliased; treat as detected-uncorrectable.
        return DecodeResult(data, corrected=False, uncorrectable=True)
    # The flip mask is 0 when the flip hit a parity position: the data
    # is already correct.
    data ^= int(_SYNDROME_FLIP[syndrome])
    return DecodeResult(data, corrected=True, uncorrectable=False)


#: Arrays shorter than this many words are encoded through the byte
#: tables. Measured on a 2-CPU x86-64 host (Python 3.11, numpy 2.4):
#: the table loop costs about 3.4 us for 4 words and 7.4 us for 16,
#: the popcount path 7-8 us flat up to 32 words.
TABLE_MAX_WORDS = 16

# _BYTE_CHECKS[i][b] == encode(b << 8 * i), one 256-entry table per data
# byte, filled by linearity from the one-bit words.
_ONE_BIT_CHECKS = [encode(1 << bit) for bit in range(64)]
_BYTE_CHECKS = []
for _i in range(8):
    _table = bytearray(256)
    for _b in range(1, 256):
        _low = (_b & -_b).bit_length() - 1
        _table[_b] = _table[_b & (_b - 1)] ^ _ONE_BIT_CHECKS[8 * _i + _low]
    _BYTE_CHECKS.append(bytes(_table))
del _i, _b, _low, _table


def _encode_by_table(words: np.ndarray) -> np.ndarray:
    t0, t1, t2, t3, t4, t5, t6, t7 = _BYTE_CHECKS
    raw = words.astype("<u8", copy=False).tobytes()
    checks = bytearray(words.size)
    k = 0
    for b0, b1, b2, b3, b4, b5, b6, b7 in zip(*[iter(raw)] * 8):
        checks[k] = (t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3]
                     ^ t4[b4] ^ t5[b5] ^ t6[b6] ^ t7[b7])
        k += 1
    return np.frombuffer(checks, dtype=np.uint8).reshape(words.shape)


def encode_array(words: np.ndarray) -> np.ndarray:
    """Vectorized :func:`encode` over a ``uint64`` array -> ``uint8`` checks."""
    words = np.asarray(words, dtype=np.uint64)
    if words.size < TABLE_MAX_WORDS:
        return _encode_by_table(words)
    hamming = _hamming_byte(words)
    # Overall parity covers the data bits plus the seven Hamming bits.
    overall = (np.bitwise_count(words) + np.bitwise_count(hamming)) & np.uint8(1)
    return hamming | overall


def decode_array(
    words: np.ndarray, checks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`decode`.

    Returns ``(corrected_words, corrected_mask, uncorrectable_mask)``.
    """
    words = np.asarray(words, dtype=np.uint64)
    checks = np.asarray(checks, dtype=np.uint8)
    syndrome = (_hamming_byte(words) ^ checks) >> np.uint8(1)
    # Odd parity over all 72 stored bits.
    overall_mismatch = (
        (np.bitwise_count(words) + np.bitwise_count(checks)) & np.uint8(1)
    ).astype(bool)
    nonzero = syndrome != 0
    uncorrectable = nonzero & (~overall_mismatch | (syndrome >= 72))
    single = nonzero & overall_mismatch & (syndrome < 72)
    fixed = words ^ np.where(single, _SYNDROME_FLIP[syndrome], np.uint64(0))
    corrected = single | (~nonzero & overall_mismatch)
    return fixed, corrected, uncorrectable


def bytes_to_words(data: bytes) -> np.ndarray:
    """Pack bytes (length must be a multiple of 8) into uint64 words."""
    if len(data) % 8:
        raise ValueError(f"length {len(data)} is not a multiple of 8")
    return np.frombuffer(data, dtype="<u8").copy()


def words_to_bytes(words: np.ndarray) -> bytes:
    """Inverse of :func:`bytes_to_words`."""
    return np.asarray(words, dtype="<u8").tobytes()
