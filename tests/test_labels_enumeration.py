"""Tests for the primitive-sequence oracles in tests.helpers.

The enumeration behind ``all_primitive_constraints`` drives every
brute-force parity test, so its size is pinned to the paper's constant
``C`` (Section V-C), and the paper's recursion for ``F(i)`` to the
Moebius closed form and to an exhaustive count.
"""

from __future__ import annotations

import itertools

import pytest

from repro.labels.minimum_repeat import is_primitive

from tests.helpers import (
    count_k_bounded_minimum_repeats,
    count_primitive_sequences,
    enumerate_primitive_sequences,
)


def mobius(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def mobius_count(alphabet: int, length: int) -> int:
    """Primitive sequences of exactly ``length`` (Moebius inversion)."""
    return sum(
        mobius(d) * alphabet ** (length // d)
        for d in range(1, length + 1)
        if length % d == 0
    )


class TestCountPrimitiveSequences:
    @pytest.mark.parametrize("alphabet", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 6])
    def test_matches_mobius_inversion(self, alphabet, length):
        assert count_primitive_sequences(alphabet, length) == mobius_count(
            alphabet, length
        )

    @pytest.mark.parametrize("alphabet", [1, 2, 3])
    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_matches_exhaustive_count(self, alphabet, length):
        brute = sum(
            1
            for seq in itertools.product(range(alphabet), repeat=length)
            if is_primitive(seq)
        )
        assert count_primitive_sequences(alphabet, length) == brute

    def test_binary_values(self):
        # Classic: primitive binary words of lengths 1..4 are 2, 2, 6, 12.
        assert [count_primitive_sequences(2, i) for i in range(1, 5)] == [2, 2, 6, 12]

    def test_single_letter_alphabet(self):
        assert count_primitive_sequences(1, 1) == 1
        assert count_primitive_sequences(1, 2) == 0

    def test_zero_alphabet(self):
        assert count_primitive_sequences(0, 3) == 0

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            count_primitive_sequences(2, 0)


class TestCountKBounded:
    def test_paper_constant_k2(self):
        # C = |L| + (|L|^2 - |L|) for k = 2.
        for alphabet in (2, 3, 8):
            assert (
                count_k_bounded_minimum_repeats(alphabet, 2)
                == alphabet + alphabet * alphabet - alphabet
            )

    def test_sum_of_f(self):
        assert count_k_bounded_minimum_repeats(3, 4) == sum(
            count_primitive_sequences(3, i) for i in (1, 2, 3, 4)
        )

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            count_k_bounded_minimum_repeats(2, 0)


class TestEnumerate:
    def test_count_agrees(self):
        seqs = list(enumerate_primitive_sequences(range(3), 3))
        assert len(seqs) == count_k_bounded_minimum_repeats(3, 3)

    def test_all_primitive_and_unique(self):
        seqs = list(enumerate_primitive_sequences(range(2), 4))
        assert all(is_primitive(s) for s in seqs)
        assert len(seqs) == len(set(seqs))

    def test_ordering_by_length(self):
        lengths = [len(s) for s in enumerate_primitive_sequences(range(2), 3)]
        assert lengths == sorted(lengths)

    def test_empty_alphabet(self):
        assert list(enumerate_primitive_sequences((), 3)) == []

    def test_max_length_zero(self):
        assert list(enumerate_primitive_sequences(range(2), 0)) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            list(enumerate_primitive_sequences(range(2), -1))
