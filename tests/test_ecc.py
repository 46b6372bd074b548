"""Unit and property tests for the SECDED Hamming(72,64) codec."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import ecc

WORDS = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestScalarRoundtrip:
    def test_zero_word(self):
        check = ecc.encode(0)
        result = ecc.decode(0, check)
        assert result.data == 0
        assert result.clean

    def test_all_ones(self):
        word = (1 << 64) - 1
        check = ecc.encode(word)
        result = ecc.decode(word, check)
        assert result.data == word
        assert result.clean

    @given(WORDS)
    @settings(max_examples=200)
    def test_roundtrip_is_clean(self, word):
        result = ecc.decode(word, ecc.encode(word))
        assert result.data == word
        assert not result.corrected
        assert not result.uncorrectable


class TestSingleBitCorrection:
    @given(WORDS, st.integers(min_value=0, max_value=63))
    @settings(max_examples=200)
    def test_any_data_bit_flip_is_corrected(self, word, bit):
        check = ecc.encode(word)
        corrupted = word ^ (1 << bit)
        result = ecc.decode(corrupted, check)
        assert result.corrected
        assert not result.uncorrectable
        assert result.data == word

    @given(WORDS, st.integers(min_value=0, max_value=7))
    @settings(max_examples=100)
    def test_any_check_bit_flip_leaves_data_intact(self, word, bit):
        check = ecc.encode(word) ^ (1 << bit)
        result = ecc.decode(word, check)
        assert result.corrected
        assert not result.uncorrectable
        assert result.data == word


class TestDoubleBitDetection:
    @given(
        WORDS,
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=200)
    def test_two_data_bit_flips_are_detected(self, word, b1, b2):
        if b1 == b2:
            return
        check = ecc.encode(word)
        corrupted = word ^ (1 << b1) ^ (1 << b2)
        result = ecc.decode(corrupted, check)
        assert result.uncorrectable
        assert not result.corrected

    @given(
        WORDS,
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=100)
    def test_one_data_plus_one_check_flip_is_detected(self, word, data_bit, check_bit):
        check = ecc.encode(word) ^ (1 << check_bit)
        corrupted = word ^ (1 << data_bit)
        result = ecc.decode(corrupted, check)
        assert result.uncorrectable


class TestVectorized:
    def test_encode_array_matches_scalar(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 1 << 63, size=64, dtype=np.uint64)
        checks = ecc.encode_array(words)
        for word, check in zip(words, checks):
            assert int(check) == ecc.encode(int(word))

    def test_decode_array_clean(self):
        rng = np.random.default_rng(4)
        words = rng.integers(0, 1 << 63, size=128, dtype=np.uint64)
        checks = ecc.encode_array(words)
        fixed, corrected, uncorrectable = ecc.decode_array(words, checks)
        assert np.array_equal(fixed, words)
        assert not corrected.any()
        assert not uncorrectable.any()

    def test_decode_array_corrects_scattered_single_flips(self):
        rng = np.random.default_rng(5)
        words = rng.integers(0, 1 << 63, size=100, dtype=np.uint64)
        checks = ecc.encode_array(words)
        corrupted = words.copy()
        flip_indices = [3, 17, 42, 99]
        for i in flip_indices:
            corrupted[i] ^= np.uint64(1) << np.uint64(rng.integers(0, 64))
        fixed, corrected, uncorrectable = ecc.decode_array(corrupted, checks)
        assert np.array_equal(fixed, words)
        assert sorted(np.nonzero(corrected)[0].tolist()) == flip_indices
        assert not uncorrectable.any()

    def test_decode_array_flags_double_flips(self):
        words = np.array([0xDEADBEEFCAFEF00D], dtype=np.uint64)
        checks = ecc.encode_array(words)
        corrupted = words ^ np.uint64((1 << 5) | (1 << 40))
        _, corrected, uncorrectable = ecc.decode_array(corrupted, checks)
        assert uncorrectable[0]
        assert not corrected[0]


#: A stored (word, check byte) pair: a codeword with an arbitrary error
#: pattern on the check byte. The error byte sets the Hamming syndrome
#: (its bits 1..7) and the overall-parity mismatch (its popcount), so
#: all 128 syndromes occur: zero, parity positions, data positions and
#: positions >= 72.
STORED = st.tuples(WORDS, st.integers(min_value=0, max_value=255)).map(
    lambda pair: (pair[0], ecc.encode(pair[0]) ^ pair[1])
)


class TestVectorizedFullRange:
    """``encode_array``/``decode_array`` against the scalar codec over
    every 64-bit word, data bit 63 included."""

    @given(st.lists(WORDS, max_size=24))
    @example([(1 << 64) - 1, 1 << 63, 0])
    @settings(max_examples=200)
    def test_encode_array_equals_encode(self, words):
        checks = ecc.encode_array(np.array(words, dtype=np.uint64))
        assert checks.dtype == np.uint8
        assert checks.tolist() == [ecc.encode(word) for word in words]

    @given(st.lists(STORED | st.tuples(WORDS, st.integers(0, 255)), max_size=24))
    @example([(1 << 63, ecc.encode(1 << 63) ^ 0x01)])  # zero syndrome, parity only
    @example([(1 << 63, ecc.encode(1 << 63) ^ 0x03)])  # syndrome at parity position 1
    @example([(1 << 63, ecc.encode(1 << 63) ^ 0x81)])  # syndrome at parity position 64
    @example([(1 << 63, ecc.encode(1 << 63) ^ ((72 << 1) | 1))])  # syndrome 72
    @example([(1 << 63, ecc.encode(1 << 63) ^ 0xFF)])  # syndrome 127
    @example([(1 << 63, ecc.encode(1 << 63) ^ 0x06)])  # even mismatch: double
    @example([(0, ecc.encode(1 << 63))])  # data bit 63 flipped
    @settings(max_examples=300)
    def test_decode_array_equals_decode(self, pairs):
        words = np.array([word for word, _ in pairs], dtype=np.uint64)
        checks = np.array([check for _, check in pairs], dtype=np.uint8)
        fixed, corrected, uncorrectable = ecc.decode_array(words, checks)
        expected = [ecc.decode(word, check) for word, check in pairs]
        assert fixed.dtype == np.uint64
        assert fixed.tolist() == [r.data for r in expected]
        assert corrected.tolist() == [r.corrected for r in expected]
        assert uncorrectable.tolist() == [r.uncorrectable for r in expected]

    @pytest.mark.parametrize("shape", [(), (0,), (2, 3)])
    def test_shape_and_dtype_are_kept(self, shape):
        words = np.full(shape, (1 << 63) | 5, dtype=np.uint64)
        checks = ecc.encode_array(words)
        assert checks.shape == shape and checks.dtype == np.uint8
        # Flip data bit 63 of every stored word: each decodes back.
        stored = words ^ np.uint64(1 << 63)
        fixed, corrected, uncorrectable = ecc.decode_array(stored, checks)
        assert fixed.shape == corrected.shape == uncorrectable.shape == shape
        assert fixed.dtype == np.uint64
        assert np.array_equal(fixed, words)
        assert corrected.all() and not uncorrectable.any()


class TestByteHelpers:
    def test_roundtrip(self):
        data = bytes(range(16))
        assert ecc.words_to_bytes(ecc.bytes_to_words(data)) == data

    def test_rejects_unaligned(self):
        with pytest.raises(ValueError):
            ecc.bytes_to_words(b"abc")


def hamming_check_byte(word):
    """The SECDED check byte from the code's textbook definition, written
    apart from the codec: data bits fill codeword positions 1..71 that
    are not powers of two, in ascending order; Hamming bit ``k`` (check
    bit ``k + 1``) is the parity of the set positions that have bit
    ``k`` set; check bit 0 is the parity of every other codeword bit."""
    positions = [p for p in range(1, 72) if p & (p - 1)]
    set_positions = [p for bit, p in enumerate(positions) if word >> bit & 1]
    check = 0
    for k in range(7):
        parity = sum(1 for p in set_positions if p >> k & 1) & 1
        check |= parity << (k + 1)
    overall = (len(set_positions) + bin(check).count("1")) & 1
    return check | overall


class TestByteTables:
    """``encode_array`` takes the per-byte tables below
    ``TABLE_MAX_WORDS`` words and the popcounts at and above it."""

    def test_crossover_lies_inside_the_checked_lengths(self):
        assert 1 < ecc.TABLE_MAX_WORDS < 64

    @pytest.mark.parametrize("length", range(65))
    def test_every_length_matches_scalar_encode(self, length):
        rng = np.random.default_rng(length)
        words = rng.integers(0, 1 << 64, size=length, dtype=np.uint64, endpoint=False)
        checks = ecc.encode_array(words)
        assert checks.dtype == np.uint8 and checks.shape == (length,)
        assert checks.tolist() == [ecc.encode(int(w)) for w in words]
        checks[:] = 0  # a fresh, writable array

    def test_staging_size_array(self):
        rng = np.random.default_rng(99)
        words = rng.integers(0, 1 << 64, size=8192, dtype=np.uint64, endpoint=False)
        checks = ecc.encode_array(words)
        sample = rng.choice(len(words), size=256, replace=False)
        assert [int(checks[i]) for i in sample] == [ecc.encode(int(words[i])) for i in sample]

    def test_one_bit_words_match_the_definition(self):
        words = [0] + [1 << bit for bit in range(64)]
        assert [ecc.encode(w) for w in words] == [hamming_check_byte(w) for w in words]
        table = ecc.encode_array(np.array(words[:ecc.TABLE_MAX_WORDS - 1], dtype=np.uint64))
        assert table.tolist() == [hamming_check_byte(w) for w in words[:ecc.TABLE_MAX_WORDS - 1]]

    @given(st.lists(WORDS, min_size=1, max_size=8))
    @example([(1 << 64) - 1, 1 << 63, 0x0123456789ABCDEF])
    @settings(max_examples=200)
    def test_encode_matches_the_definition(self, words):
        expected = [hamming_check_byte(w) for w in words]
        assert [ecc.encode(w) for w in words] == expected
        assert ecc.encode_array(np.array(words, dtype=np.uint64)).tolist() == expected


# The full-range properties at ten times the examples, for the slow tier.
@pytest.mark.slow
@given(st.lists(WORDS, max_size=40))
@settings(max_examples=2000)
def test_encode_array_equals_encode_long(words):
    checks = ecc.encode_array(np.array(words, dtype=np.uint64))
    assert checks.tolist() == [ecc.encode(word) for word in words]
    assert checks.tolist() == [hamming_check_byte(word) for word in words]


@pytest.mark.slow
@given(st.lists(STORED | st.tuples(WORDS, st.integers(0, 255)), max_size=24))
@settings(max_examples=3000)
def test_decode_array_equals_decode_long(pairs):
    words = np.array([word for word, _ in pairs], dtype=np.uint64)
    checks = np.array([check for _, check in pairs], dtype=np.uint8)
    fixed, corrected, uncorrectable = ecc.decode_array(words, checks)
    expected = [ecc.decode(word, check) for word, check in pairs]
    assert fixed.tolist() == [r.data for r in expected]
    assert corrected.tolist() == [r.corrected for r in expected]
    assert uncorrectable.tolist() == [r.uncorrectable for r in expected]
