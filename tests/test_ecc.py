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
