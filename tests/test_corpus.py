"""The random corpus generators against their factor-by-factor oracles.

The generators draw every random number in the oracles' order, factor all
constant factors of a loop in one batched QR or SVD and chain the factors,
and beside them the factors' inverse adjoints, as raw taps; none of that may
change a bit of a loop, of its dual or of the generator state."""

import numpy as np
import pytest

from oracles import (
    factorwise_biorthogonal_bank,
    factorwise_causal_pair,
    factorwise_invertible_loop,
    factorwise_invertible_pair,
    factorwise_unitary_loop,
)
from wavefock.corpus import (
    random_biorthogonal_bank,
    random_causal_pair,
    random_invertible_loop,
    random_invertible_pair,
    random_unitary_loop,
)


def bits(taps: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of complex taps as raw 64-bit words."""
    return np.ascontiguousarray(taps).view(float).view(np.int64)


def assert_same_loop(got, want):
    assert got.lo == want.lo and got.taps.shape == want.taps.shape
    assert np.array_equal(bits(got.taps), bits(want.taps))


def assert_same_pair(got, want):
    for g, w in zip(got, want, strict=True):
        assert_same_loop(g, w)


def assert_same_bank(got, want):
    for g, w in zip(got.filters + got.dual_filters, want.filters + want.dual_filters):
        assert g.lo == w.lo and g.taps.shape == w.taps.shape
        assert np.array_equal(bits(g.taps), bits(w.taps))


UNITARY = (random_unitary_loop, factorwise_unitary_loop, assert_same_loop)
INVERTIBLE = (random_invertible_loop, factorwise_invertible_loop, assert_same_loop)
PAIR = (random_invertible_pair, factorwise_invertible_pair, assert_same_pair)
BIORTHOGONAL = (random_biorthogonal_bank, factorwise_biorthogonal_bank, assert_same_bank)
CAUSAL = (random_causal_pair, factorwise_causal_pair, assert_same_bank)
CASES = [
    (UNITARY, {}),
    (UNITARY, {"factors": 0}),
    (UNITARY, {"factors": 3, "max_shift": 2}),
    (UNITARY, {"factors": 1, "max_shift": 0}),
    (INVERTIBLE, {}),
    (INVERTIBLE, {"shears": 0}),
    (INVERTIBLE, {"shears": 3, "max_shift": 2}),
    (INVERTIBLE, {"shears": 1, "max_shift": 0, "coeff_scale": 1.3}),
    (PAIR, {}),
    (PAIR, {"shears": 0}),
    (PAIR, {"shears": 3, "max_shift": 2}),
    (PAIR, {"shears": 1, "max_shift": 0, "coeff_scale": 1.3}),
    (BIORTHOGONAL, {}),
    (BIORTHOGONAL, {"shears": 3, "max_shift": 2}),
    (CAUSAL, {}),
    (CAUSAL, {"stages": 0}),
    (CAUSAL, {"stages": 3, "max_shift": 3}),
]


@pytest.mark.parametrize("generator, kw", CASES, ids=[f"{g[0].__name__}-{kw}" for g, kw in CASES])
def test_generators_match_factorwise_oracle_bit_for_bit(generator, kw):
    make, oracle, same = generator
    for N in range(2, 9):
        for seed in range(10):
            rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            same(make(N, rng, **kw), oracle(N, rng_oracle, **kw))
            assert rng.bit_generator.state == rng_oracle.bit_generator.state


def test_draws_continue_from_one_generator():
    # consecutive calls on one generator, as the equivalence suite makes them
    rng, rng_oracle = np.random.default_rng(7), np.random.default_rng(7)
    for s in range(6):
        N = 2 + s % 3
        assert_same_loop(random_unitary_loop(N, rng), factorwise_unitary_loop(N, rng_oracle))
        assert_same_loop(random_invertible_loop(N, rng), factorwise_invertible_loop(N, rng_oracle))
        assert_same_pair(random_invertible_pair(N, rng), factorwise_invertible_pair(N, rng_oracle))
        assert_same_bank(random_biorthogonal_bank(N, rng), factorwise_biorthogonal_bank(N, rng_oracle))
        assert_same_bank(random_causal_pair(N, rng), factorwise_causal_pair(N, rng_oracle))
    assert rng.bit_generator.state == rng_oracle.bit_generator.state
