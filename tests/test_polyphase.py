import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefock.acceptance import DEFAULT_SEED
from wavefock.corpus import (
    HAAR_LOOP,
    STRETCHED_HAAR_LOOP,
    builtin_bank,
    haar_bank,
    identity_loop_bank,
    random_bank,
    random_biorthogonal_bank,
    random_causal_pair,
    random_invertible_loop,
    random_invertible_pair,
    random_unitary_loop,
    stretched_haar_bank,
)
from wavefock.errors import SingularLoopError, SizeCapError
from wavefock.filterbank import (
    DEFAULT_TOL,
    PART_CAP,
    FilterBank,
    apply_S,
    apply_S_adjoint,
    relation_report,
)
from oracles import (
    DictPoly,
    accumulated_tap_product,
    as_monomial_unit,
    entries_loop_json,
    loops_close,
    per_family_modulation_bound,
    shift_loop,
    shifted_diagonal,
    torus_grid,
)
import wavefock.polyphase as pp
from wavefock.laurent import LaurentPoly, adjoint_poly, poly_window
from wavefock.polyphase import (
    SINGULAR_TOL,
    LoopMatrix,
    dual_loop,
    filters_from_loop,
    gram_function,
    loop_condition_bound,
    loop_from_filters,
    loop_det,
    loop_pair_bound,
    loop_pair_residual,
    loop_unitarity_residual,
    modulation_bound,
    modulation_matrix,
    modulation_matrix_check,
    phase_split,
    tap_product,
)
from wavefock.wavelet_fock import sampled_choi


def assert_loop_equal(A, B, tol=1e-12):
    assert A.N == B.N
    assert loops_close(A, B, tol)


def _forbidden(*args, **kw):
    raise AssertionError("a function the verdict must not need was called")


# ----------------------------------------------------------------------
# oracles: cofactor expansion and per-point sampling


def cofactor_det(A):
    """det A by cofactor expansion along the first row."""
    ent = A.entries

    def det(rows, cols):
        if len(rows) == 1:
            return ent[rows[0]][cols[0]]
        total = LaurentPoly.zero()
        for pos, c in enumerate(cols):
            term = ent[rows[0]][c] * det(rows[1:], cols[:pos] + cols[pos + 1 :])
            total = total + (term if pos % 2 == 0 else -term)
        return total

    idx = list(range(A.N))
    return det(idx, idx)


def cofactor_adjugate(A):
    """adj(A)_{ij} = (-1)^(i+j) det of A without row j and column i."""
    N = A.N

    def minor(r, c):
        if N == 1:
            return LaurentPoly.one()
        rows = [i for i in range(N) if i != r]
        cols = [j for j in range(N) if j != c]
        return cofactor_det(LoopMatrix([[A.entries[i][j] for j in cols] for i in rows]))

    return LoopMatrix(
        [[minor(j, i) * (1.0 if (i + j) % 2 == 0 else -1.0) for j in range(N)] for i in range(N)]
    )


def pointwise_sample(A, z):
    return np.array([[p.eval(z.value) for p in row] for row in A.entries])


def pointwise_modulation(bank, z, dual=False):
    filters = bank.duals_or_primaries if dual else bank.filters
    fiber = [z.root(bank.N, l) for l in range(bank.N)]
    return np.array([[m.eval(w.value) for w in fiber] for m in filters]) / np.sqrt(bank.N)


def pointwise_modulation_check(bank, grid):
    eye = np.eye(bank.N)
    pair = unit = 0.0
    for z in torus_grid(grid):
        M = pointwise_modulation(bank, z)
        Mt = pointwise_modulation(bank, z, dual=True)
        unit = max(unit, np.linalg.norm(M.conj().T @ M - eye, 2))
        pair = max(pair, np.linalg.norm(M.conj().T @ Mt - eye, 2))
    return pair, unit


def pointwise_pair_residual(A, At, grid):
    eye = np.eye(A.N)
    return max(
        np.linalg.norm(pointwise_sample(A, z).conj().T @ pointwise_sample(At, z) - eye, 2)
        for z in torus_grid(grid)
    )


def pointwise_unitarity_residual(A, grid):
    eye = np.eye(A.N)
    return max(
        np.linalg.norm(pointwise_sample(A, z) @ pointwise_sample(A, z).conj().T - eye, 2)
        for z in torus_grid(grid)
    )


class TestLoopArrays:
    @staticmethod
    def dict_entries(A):
        return [[DictPoly.of(p) for p in row] for row in A.entries]

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_product_and_adjoint_match_dict_oracle(self, rng, N):
        A, B = random_invertible_loop(N, rng), random_unitary_loop(N, rng)
        da, db = self.dict_entries(A), self.dict_entries(B)
        for i, row in enumerate((A @ B).entries):
            for j, got in enumerate(row):
                want = DictPoly()
                for k in range(N):
                    want = want + da[i][k] * db[k][j]
                assert got.isclose(LaurentPoly(want.coeffs()), 1e-13)
        for i, row in enumerate(A.adjoint().entries):
            for j, got in enumerate(row):
                assert got.coeffs() == da[j][i].adjoint().coeffs()

    def test_trimming_and_zero_loop(self):
        taps = np.zeros((4, 2, 2))
        taps[1, 0, 1] = taps[2, 1, 0] = 1.0
        A = LoopMatrix.from_array(-2, taps)
        assert (A.lo, A.hi, A.taps.shape) == (-1, 0, (2, 2, 2))
        assert A.entries[0][1] == LaurentPoly.monomial(-1)
        Z = LoopMatrix.from_array(5, np.zeros((3, 2, 2)))
        assert (Z.lo, Z.max_abs_exp()) == (0, 0)
        assert all(p.is_zero for row in Z.entries for p in row)
        assert loops_close(A @ Z, Z, 0.0)

    def test_sample_grid_is_linear_in_the_grid(self):
        # diag(1, z^4000) on 4001 points: the values take 256 KB, where a
        # (grid x taps) phase matrix would take 256 MB
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        A = LoopMatrix([[one, zero], [zero, LaurentPoly.monomial(4000)]])
        tracemalloc.start()
        try:
            values = A.sample_grid(4001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        want = np.exp(-2j * np.pi * np.arange(4001) / 4001)  # z^4000 = z^-1 on these points
        assert np.abs(values[:, 1, 1] - want).max() < 1e-12
        assert np.abs(values[:, 0, 0] - 1.0).max() < 1e-12

    def test_products_do_not_depend_on_scale(self, rng):
        A = random_invertible_loop(3, rng)
        small = LoopMatrix.from_array(A.lo, A.taps * 1e-8)
        big, tiny = A @ A.adjoint(), small @ small.adjoint()
        assert (tiny.lo, tiny.taps.shape) == (big.lo, big.taps.shape)
        assert np.abs(tiny.taps * 1e16 - big.taps).max() < 1e-12

    @staticmethod
    def tap_convolution(A, B):
        """The product as a sum of shifted tap products, trimmed by hand."""
        out = accumulated_tap_product(A.taps, B.taps)
        live = np.flatnonzero(out.reshape(len(out), -1).any(axis=1))
        if not len(live):
            return 0, out[:1] * 0
        return A.lo + B.lo + int(live[0]), out[live[0] : live[-1] + 1]

    @pytest.mark.parametrize("N", [2, 3])
    def test_products_match_tap_convolution_bit_for_bit(self, rng, N):
        # one-tap factors take the broadcast product; signed zeros included
        one_tap = [
            LoopMatrix.from_array(int(rng.integers(-2, 3)), rng.standard_normal((1, N, N)) - 0.5)
            for _ in range(3)
        ]
        diagonal = LoopMatrix.from_array(1, np.eye(N)[None] * -1.0)
        sparse = LoopMatrix.from_array(-1, np.stack([np.eye(N), np.eye(N)[::-1]]))  # exact zeros
        loops = one_tap + [diagonal, sparse, random_invertible_loop(N, rng), random_unitary_loop(N, rng)]
        for A in loops:
            for B in loops:
                got, (lo, want) = A @ B, self.tap_convolution(A, B)
                assert got.lo == lo and np.array_equal(got.taps, want)
                assert np.array_equal(np.signbit(got.taps.view(float)), np.signbit(want.view(float)))

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 7)),
        seed=st.integers(0, 2**32 - 1),
        small=st.booleans(),
        neg_zero=st.sampled_from([0.0, 0.2, 0.7]),
        ends=st.tuples(*[st.sampled_from(["", "first", "last", "both"])] * 2),
    )
    def test_tap_product_matches_accumulation_bit_for_bit(self, shape, seed, small, neg_zero, ends):
        # small integer entries cancel exactly; -0.0 entries and zero end taps
        # test the signs of the zeros the accumulation leaves
        (la, lb, N), rng = shape, np.random.default_rng(seed)

        def taps(T, end):
            if small:
                x = rng.integers(-1, 2, (T, N, N)) + 1j * rng.integers(-1, 2, (T, N, N))
            else:
                x = rng.standard_normal((T, N, N)) + 1j * rng.standard_normal((T, N, N))
            x.real[rng.random(x.shape) < neg_zero] = -0.0
            x.imag[rng.random(x.shape) < neg_zero] = -0.0
            if end in ("first", "both"):
                x[0] = -0.0
            if end in ("last", "both"):
                x[-1] = 0.0
            return x

        a, b = taps(la, ends[0]), taps(lb, ends[1])
        got, want = tap_product(a, b), accumulated_tap_product(a, b)
        assert got.shape == want.shape == (la + lb - 1, N, N)
        assert np.array_equal(got.view(float).view(np.int64), want.view(float).view(np.int64))

    @pytest.mark.parametrize("cap", [1, 20, 64, 1 << 21])
    def test_batched_product_matches_accumulation_bit_for_bit(self, monkeypatch, cap):
        # under a small cap the pairs come in several batches, and the zero
        # taps of a are skipped; the sums stay those of the accumulation
        monkeypatch.setattr(pp, "PART_CAP", cap)
        rng = np.random.default_rng(cap)
        a = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
        a[[1, 2, 5]] = 0.0
        a[7] = -0.0
        b = rng.standard_normal((5, 2, 2)) - 0.5j
        for x, y in ((a, b), (b, a), (a, a)):
            got, want = tap_product(x, y), accumulated_tap_product(x, y)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "name, N",
        [("stretched-haar", 0), ("stretched-haar-dual", 0), ("random-biorthogonal", 5), ("random-causal-pair", 3)],
    )
    def test_pair_bound_is_the_accumulated_gap(self, name, N):
        # the bank's certificate reads the gap of A* Atilde as the
        # per-tap accumulation forms it, bit for bit
        bank = builtin_bank(name, {"N": N})
        A, At = bank.loops
        A_star, At = A.adjoint(), At or A
        P = LoopMatrix.from_array(A_star.lo + At.lo, accumulated_tap_product(A_star.taps, At.taps))
        assert bank.pair_bound == pp._identity_gap(P)

    def test_product_trims_cancelled_end_taps(self):
        E = np.zeros((2, 2))
        E[0, 1] = 1.0
        plus = LoopMatrix.from_array(0, np.stack([np.eye(2), E]))
        minus = LoopMatrix.from_array(0, np.stack([np.eye(2), -E]))
        prod = plus @ minus  # (I + zE)(I - zE) = I - z^2 E^2 = I
        assert (prod.lo, prod.taps.shape) == (0, (1, 2, 2))
        assert np.array_equal(prod.taps[0], np.eye(2))
        shifted = LoopMatrix.from_array(-3, np.stack([E, E]))  # z^-3 E (1 + z)
        for zero in (shifted @ shifted, LoopMatrix.from_constant(E) @ LoopMatrix.from_constant(E)):
            assert (zero.lo, zero.taps.shape) == (0, (1, 2, 2))
            assert not zero.taps.any()

    def test_trim_scans_only_when_an_end_tap_is_zero(self, monkeypatch):
        taps = np.zeros((3, 2, 2))
        taps[0, 0, 0] = taps[2, 1, 1] = 1.0
        scans = []
        flatnonzero = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda a: scans.append(1) or flatnonzero(a))
        A = LoopMatrix.from_array(0, taps)
        assert (A.lo, len(A.taps), scans) == (0, 3, [])
        B = LoopMatrix.from_array(0, taps[:2])
        assert (B.lo, len(B.taps), scans) == (0, 1, [1])


class TestLoopFromFilters:
    def test_haar_constant_loop(self, haar):
        A, At = loop_from_filters(haar)
        assert At is None
        target = LoopMatrix.from_constant(HAAR_LOOP)
        assert_loop_equal(A, target, 1e-15)

    def test_stretched_first_row(self, stretched):
        A, _ = loop_from_filters(stretched)
        row = [A.entries[0][l] for l in range(4)]
        assert row[0] == LaurentPoly({0: 1})
        assert row[1].is_zero
        assert row[2] == LaurentPoly({0: 1})
        assert row[3].is_zero

    def test_round_trip_seeded(self, rng):
        for _ in range(100):
            N = int(rng.integers(2, 5))
            bank = random_bank(N, rng)
            A, _ = loop_from_filters(bank)
            again = filters_from_loop(A)
            assert again.filters == bank.filters
            B, _ = loop_from_filters(again)
            assert_loop_equal(A, B, 1e-15)

    def test_degree_bound_causal(self, rng):
        # filters supported in [0, Ng-1] give loop entries of degree <= g-1
        for _ in range(20):
            N = int(rng.integers(2, 5))
            g = int(rng.integers(1, 4))
            exps = rng.choice(np.arange(0, N * g), size=min(4, N * g), replace=False)
            m = LaurentPoly({int(k): complex(*rng.standard_normal(2)) for k in exps})
            bank = random_bank(N, rng)
            bank = FilterBank(N, (m,) + bank.filters[1:])
            A, _ = loop_from_filters(bank)
            for l in range(N):
                p = A.entries[0][l]
                if not p.is_zero:
                    assert 0 <= p.min_exp and p.max_exp <= g - 1

    def test_degree_bound_laurent(self, rng):
        # general genus-g supports give loop entries with exponents in [-g, g-1]
        for _ in range(20):
            bank = random_bank(2, rng, span=5)
            g = bank.genus
            A, _ = loop_from_filters(bank)
            for row in A.entries:
                for p in row:
                    if not p.is_zero:
                        assert -g <= p.min_exp and p.max_exp <= g - 1


    def test_loop_build_cap_refuses_before_allocating(self):
        # 4 rows x (2^20 + 4) entries, over PART_CAP: the phase array would
        # take 64 MiB
        filters = [LaurentPoly.monomial(k) for k in (0, 1, 2, 2**20 - 1)]
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match="cap"):
                phase_split(4, filters)
            with pytest.raises(SizeCapError):
                FilterBank(4, filters).loops
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_large_builtin_far_under_loop_build_cap(self):
        # 64 x (320 + 64) and 64 x (256 + 64) entries: about 1% of the cap
        bank = random_biorthogonal_bank(64, np.random.default_rng(0))
        for family in (bank.filters, bank.dual_filters):
            assert len(family) * (poly_window(family)[1] + 64) < PART_CAP // 64
            assert phase_split(64, family)[1].size < PART_CAP // 64


class TestFiltersFromLoop:
    def test_haar_filters(self):
        bank = filters_from_loop(LoopMatrix.from_constant(HAAR_LOOP))
        s = 1 / np.sqrt(2)
        assert bank.filters[0].isclose(LaurentPoly({0: s, 1: s}), 1e-15)
        assert bank.filters[1].isclose(LaurentPoly({0: s, 1: -s}), 1e-15)

    def test_identity_loop(self):
        bank = identity_loop_bank(3)
        for i in range(3):
            assert bank.filters[i] == LaurentPoly.monomial(i)

    def test_stretched_lowpass(self, stretched):
        assert stretched.filters[0] == LaurentPoly({0: 1, 2: 1})


class TestDualLoop:
    def test_haar_self_dual(self):
        A = LoopMatrix.from_constant(HAAR_LOOP)
        At = dual_loop(A)
        assert isinstance(At, LoopMatrix)
        assert_loop_equal(At, A, 1e-14)

    def test_stretched_half(self):
        A = LoopMatrix.from_constant(STRETCHED_HAAR_LOOP)
        At = dual_loop(A)
        half = LoopMatrix.from_constant(STRETCHED_HAAR_LOOP / 2.0)
        assert_loop_equal(At, half, 1e-14)

    def test_random_monomial_det_exact(self, rng):
        for _ in range(10):
            A = random_invertible_loop(2, rng)
            At = dual_loop(A)
            assert isinstance(At, LoopMatrix)
            assert loop_pair_residual(A, At, 128) < 1e-11

    def test_non_monomial_det_has_no_exact_dual(self):
        # det A = 1 + z/2 has no zero on the circle, but its inverse is not a
        # Laurent polynomial
        A = LoopMatrix(
            [
                [LaurentPoly.one(), LaurentPoly.zero()],
                [LaurentPoly({0: 0.3}), LaurentPoly({0: 1.0, 1: 0.5})],
            ]
        )
        assert len(loop_det(A).support) == 2
        assert dual_loop(A) is None

    def test_singular_loop_rejected(self):
        A = LoopMatrix(
            [
                [LaurentPoly.one(), LaurentPoly.zero()],
                [LaurentPoly.zero(), LaurentPoly({0: 1.0, 1: 1.0})],
            ]
        )
        with pytest.raises(SingularLoopError):
            dual_loop(A)

    @pytest.mark.parametrize("scale, singular", [(0.9, False), (1.1, True)])
    def test_condition_bound_decides_at_every_scale(self, monkeypatch, scale, singular):
        # A = s z [[1, 0], [1, c]] with row norms D = s diag(1, sqrt(1 + |c|^2)):
        # D^-1 A has Frobenius norm sqrt 2 and D Atilde sqrt(2 + 2/|c|^2), so
        # kappa = 2 sqrt(1 + 1/|c|^2) / (1 - g), here scale / SINGULAR_TOL.  The
        # certificate decides without det A, and alike at every s (powers of
        # two, so that this cond ~1e10 loop rounds alike at each)
        kappa = scale / SINGULAR_TOL
        c = np.exp(0.7j) / np.sqrt((kappa / 2) ** 2 - 1)

        def forbidden(*args, **kw):
            raise AssertionError("det A was taken")

        monkeypatch.setattr(pp, "loop_det", forbidden)
        for s in (2.0**-10, 1.0, 2.0**10):
            A = LoopMatrix.from_array(1, s * np.array([[[1.0, 0.0], [1.0, c]]]))
            if singular:
                with pytest.raises(SingularLoopError, match=re.escape(f"{kappa:.3e}")):
                    dual_loop(A)
            else:
                At = dual_loop(A)
                assert isinstance(At, LoopMatrix)
                assert loop_pair_bound(A, At) <= DEFAULT_TOL

    @pytest.mark.parametrize("s", [1e-3, 1.0, 1e3])
    def test_ill_conditioned_loop_refused_at_every_scale(self, s):
        # kappa = 2 sqrt(1 + 1/|c|^2) ~ 1.8e10 at |c| = 1.1e-10: one verdict at
        # every s, where the determinant's floor and the absolute coefficient
        # check gave None, a dual and None
        c = 1.1e-10 * np.exp(0.7j)
        A = LoopMatrix.from_array(1, s * np.array([[[1.0, 0.0], [1.0, c]]]))
        with pytest.raises(SingularLoopError, match="not invertible"):
            dual_loop(A)

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_det_matches_cofactor(self, rng, N):
        for _ in range(3):
            A = random_invertible_loop(N, rng)
            assert loop_det(A).isclose(cofactor_det(A), 1e-12)
            B, _ = loop_from_filters(random_bank(N, rng))  # det not a monomial
            assert loop_det(B).isclose(cofactor_det(B), 1e-12)

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_dual_matches_adjugate(self, rng, N):
        for _ in range(3):
            A = random_invertible_loop(N, rng)
            A_star = A.adjoint()
            exp, coeff = as_monomial_unit(cofactor_det(A_star))
            adj = cofactor_adjugate(A_star)
            expected = LoopMatrix(
                [[p.shift(-exp) * (1.0 / coeff) for p in row] for row in adj.entries]
            )
            At = dual_loop(A)
            assert isinstance(At, LoopMatrix)
            assert_loop_equal(At, expected, 1e-12)
            # the cofactor sums leave roundoff where the adjugate vanishes;
            # the DFT recovery must drop exactly those terms
            noise = 1e-12 * np.abs(expected.taps).max()
            for got, want in zip(At.entries, expected.entries):
                want_support = [[k for k, v in p.coeffs().items() if abs(v) > noise] for p in want]
                assert [p.support for p in got] == want_support

    @pytest.mark.parametrize("N", range(2, 9))
    @pytest.mark.parametrize("make", [random_biorthogonal_bank, random_causal_pair])
    def test_dual_matches_factor_built_dual(self, make, N):
        # the corpus chains Atilde from its factors' inverse adjoints; the
        # sampled inverse recovers the same support and coefficients
        for seed in range(5):
            A, At = make(N, np.random.default_rng(seed)).loops
            got = dual_loop(A)
            assert isinstance(got, LoopMatrix)
            assert (got.lo, got.taps.shape) == (At.lo, At.taps.shape)
            assert np.array_equal(got.taps != 0, At.taps != 0)
            assert np.abs(got.taps - At.taps).max() <= 1e-12 * np.abs(At.taps).max()

    @pytest.mark.parametrize("N", [64, 128, 256])
    def test_factor_built_pair_at_large_N(self, N):
        # past the N where the determinant verdict refused these loops (det A is
        # at most 9.2e-11 and 1.7e-20 of the row-norm product at N = 128 and
        # 256); kappa is 5.6e2 and 1.1e3, and the factor-built dual comes back
        A, want = random_invertible_pair(N, np.random.default_rng(0))
        assert loop_pair_bound(A, want) < 1e-12
        got = dual_loop(A)
        assert isinstance(got, LoopMatrix)
        assert (got.lo, got.taps.shape) == (want.lo, want.taps.shape)
        assert np.array_equal(got.taps != 0, want.taps != 0)
        assert np.abs(got.taps - want.taps).max() <= 1e-12 * np.abs(want.taps).max()

    def test_unitary_dual_at_large_N_is_small(self):
        # A = Atilde with 3 taps: one grid of 4 points certifies it, where a
        # grid as wide as the adjugate holds 511 matrices of 256 x 256
        A = random_unitary_loop(256, np.random.default_rng(0))
        tracemalloc.start()
        try:
            At = dual_loop(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 << 20
        assert (At.lo, At.taps.shape) == (A.lo, A.taps.shape)
        assert np.abs(At.taps - A.taps).max() < 1e-13

    @pytest.mark.parametrize("c, N", [(1e-3, 2), (4e-3, 2), (0.5, 2), (0.5, 16), (0.5, 256)])
    def test_truncated_series_is_not_a_dual(self, c, N):
        # 1/(1 + c z) read back on a grid is a truncated series that meets
        # A* Atilde = I within DEFAULT_TOL (4 taps at c = 1e-3, ~50 at c = 1/2),
        # but row 0 of a Laurent dual holds one tap, so one verdict at every N
        taps = np.zeros((2, N, N), dtype=complex)
        taps[0] = np.eye(N)
        taps[1, 0, 0] = c
        assert dual_loop(LoopMatrix.from_array(0, taps)) is None

    def test_grid_over_cap_decided_without_det(self, monkeypatch):
        # diag(1 + 0.9 z^100, 1, ..., 1) and I + 0.9 z^100 e_01 at N = 128: the
        # grids reach M = 128, and M = 202 holds over PART_CAP entries.  The
        # spread of log|det| decides: wide on the first grid, so no Laurent
        # dual (and sigma_min proves A invertible on 4096 points); flat on
        # 256 > 2 x 100 points, so det A is a monomial and a dual the cap
        # keeps out of reach
        monkeypatch.setattr(pp, "loop_det", _forbidden)
        N = 128
        taps = np.zeros((101, N, N), dtype=complex)
        taps[0] = np.eye(N)
        taps[100, 0, 0] = 0.9
        assert dual_loop(LoopMatrix.from_array(0, taps)) is None
        taps[100, 0, 0], taps[100, 0, 1] = 0, 0.9
        with pytest.raises(SizeCapError, match=f"{202 * N * N} entries"):
            dual_loop(LoopMatrix.from_array(0, taps))

    def test_grid_over_cap_refused_before_sampling(self):
        # I + 0.99 z P, P the cyclic shift, at N = 363 has no Laurent inverse
        # (det A = 1 + 0.99^363 z^363, whose modulus spreads on the first grid
        # of 4 points); min sigma_min is 0.01/1.41, and the samples there
        # show that a grid of 512 points (1.1 GB) would be needed to bound
        # it: refused before it is sampled
        N = 363
        A = shift_loop(N)
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match=f"512 sigma_min points need {512 * N * N} entries"):
                dual_loop(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * N * N <= PART_CAP < 16 * N * N
        assert peak < 4 * PART_CAP * 16  # a few arrays of the largest grid taken, 8 x N x N

    def test_large_shear_has_its_exact_dual(self):
        # det A = 1 and cond A(z) reaches 1.7e10, but D^-1 A, its rows scaled
        # to norm 1, has kappa = 5.3e5: far from singular, and its inverse
        # adjoint is the shear I - p*(z) e_10, recovered exactly
        c = 1e5
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        A = LoopMatrix([[one, LaurentPoly({1: c, -1: 0.3 * c})], [zero, one]])
        At = dual_loop(A)
        assert isinstance(At, LoopMatrix)
        want = LoopMatrix([[one, zero], [LaurentPoly({-1: -c, 1: -0.3 * c}), one]])
        assert_loop_equal(At, want, 1e-12 * c)
        assert loop_pair_bound(A, At) <= DEFAULT_TOL

    def test_det_of_loop_with_zero_row(self):
        zero, one = LaurentPoly.zero(), LaurentPoly.one()
        A = LoopMatrix([[zero, zero], [one, one]])
        assert loop_det(A).is_zero

    def test_large_loop_exact(self, rng):
        A = random_invertible_loop(7, rng)
        At = dual_loop(A)
        assert isinstance(At, LoopMatrix)
        assert loop_pair_residual(A, At, 128) < 1e-11

    def test_det_adjoint_is_conjugate(self, rng):
        A = random_invertible_loop(3, rng)
        assert loop_det(A.adjoint()).isclose(adjoint_poly(loop_det(A)), 1e-12)

    def test_loop_json_writes_the_taps(self, rng):
        # byte for byte the entry-by-entry form, on loops with zero entries,
        # the zero loop and signed zeros
        A = random_invertible_loop(4, rng)
        taps = A.taps.copy()
        taps[:, 1, 2] = 0.0
        taps[:, 3] = 0.0
        taps[0, 0, 0] = complex(-2.5, -0.0)
        taps[-1, 2, 1] = complex(-0.0, 1.0)
        zero = LoopMatrix.from_array(3, np.zeros((2, 3, 3)))
        for L in (A, LoopMatrix.from_array(-4, taps), zero, LoopMatrix.from_constant(HAAR_LOOP)):
            got, want = L.to_json(), entries_loop_json(L)
            assert got == want
            assert json.dumps(got) == json.dumps(want)

    def test_loop_json_round_trip(self, rng):
        A = random_invertible_loop(3, rng)
        B = LoopMatrix.from_json(A.to_json())
        assert_loop_equal(A, B, 0.0)


def _diag(p: LaurentPoly) -> LoopMatrix:
    """diag(p, 1)."""
    return LoopMatrix([[p, LaurentPoly.zero()], [LaurentPoly.zero(), LaurentPoly.one()]])


class TestInvertibility:
    def test_zero_between_grid_points_refused(self):
        # det A = 1 + z^16 vanishes where z^16 = -1, between the points of
        # every grid of at most 16 points, where it reads 2; the first grid
        # sigma_min is sampled on has 32
        A = _diag(LaurentPoly({0: 1.0, 16: 1.0}))
        with pytest.raises(SingularLoopError, match="not invertible"):
            dual_loop(A)
        with pytest.raises(SingularLoopError, match="not invertible"):
            gram_function(filters_from_loop(A), grid=8)

    def test_verdict_is_relative_to_scale(self):
        # the N = 7 loop times 0.01 has |det A| ~ 1e-14, and an absolute floor
        # of 1e-10 refused it; its conditioning is that of the loop itself
        A = random_invertible_loop(7, np.random.default_rng(0))
        for c in (1e-2, 1e-6, 1e6):
            At = dual_loop(LoopMatrix.from_array(A.lo, c * A.taps))
            assert isinstance(At, LoopMatrix)
            assert_loop_equal(LoopMatrix.from_array(At.lo, c * At.taps), dual_loop(A), 1e-9)

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_non_monomial_det_decided_at_every_scale(self, c):
        # min |1 + z/2| = 1/2 on the circle: invertible, with no exact dual
        A = _diag(LaurentPoly({0: c, 1: c / 2}))
        assert dual_loop(A) is None
        gram_function(filters_from_loop(A), grid=4)

    def test_undecided_determinant_refused(self):
        # min sigma_min of the row-scaled loop is (1 - r)/sqrt 2 = 7.1e-10, above
        # the floor (1.7e-10), but a Lipschitz bound of slope ~2.2 separates it
        # from the floor only on ~4e9 points
        A = _diag(LaurentPoly({0: 1.0, 1: -(1.0 - 1e-9)}))
        with pytest.raises(SingularLoopError, match="undecided"):
            dual_loop(A)

    @pytest.mark.parametrize("c", [0.5, 1e-3, 1e-6])
    def test_no_laurent_dual_at_every_N(self, monkeypatch, c):
        # a truncated series of the inverse fits the windows and meets
        # A* Atilde = I within DEFAULT_TOL from N = 4 (c = 1e-3 and 1e-6) and
        # N = 16 (c = 1/2) on, but |det A| spreads by ~2|c| on every grid
        monkeypatch.setattr(pp, "loop_det", _forbidden)
        for N in (2, 4, 8, 16, 64):
            assert dual_loop(shifted_diagonal(N, c)) is None

    def test_shift_loop_decided_at_N_128(self, monkeypatch):
        # det A = 1 - 0.99^128 z^128 reads flat on every grid of at most 128
        # points (z^128 = 1 there), and the next is over PART_CAP: |det|
        # spreads on 512 > 2 x 128 points, so no Laurent dual, and
        # sigma_min(D^-1 A) >= 0.01/1.41 is bounded on 512 points, where det
        # A's grid of 129 points was refused
        monkeypatch.setattr(pp, "loop_det", _forbidden)
        A = shift_loop(128)
        assert dual_loop(A) is None
        assert loop_condition_bound(A) < 1e3

    @pytest.mark.parametrize("N", [128, 256])
    def test_random_invertible_loop_certified_without_det(self, monkeypatch, N):
        # the dual's certificate and the sigma_min bound each prove A invertible
        monkeypatch.setattr(pp, "loop_det", _forbidden)
        A = random_invertible_loop(N, np.random.default_rng(0))
        At = dual_loop(A)
        assert isinstance(At, LoopMatrix) and loop_pair_bound(A, At) <= DEFAULT_TOL
        assert loop_condition_bound(A) < 1 / SINGULAR_TOL

    def test_large_banks_build(self):
        # both generators call dual_loop on N = 64 loops whose |det A| is
        # ~1e-3 and whose row norms exceed 1; their determinants sit ~1e-5
        # below the product of the row norms
        for make in (random_causal_pair, random_biorthogonal_bank):
            bank = make(64, np.random.default_rng(0))
            assert bank.N == 64 and bank.dual_filters is not None

    def test_verdict_ignores_row_scale(self):
        # scaling one filter scales A's row and its norm alike, and D Atilde
        # is read back unchanged, so the dual comes back with that row of
        # Atilde scaled by 1/s (the roundoff cut of a read-back Atilde, 2^80
        # between rows, zeroed the small row and gave None)
        A = random_invertible_loop(3, np.random.default_rng(1))
        At = dual_loop(A)
        for s in (2.0**-40, 2.0**40):
            taps = A.taps.copy()
            taps[:, 0] *= s
            gram_function(filters_from_loop(LoopMatrix.from_array(A.lo, taps)), grid=4)
            got = dual_loop(LoopMatrix.from_array(A.lo, taps))
            assert isinstance(got, LoopMatrix)
            assert np.array_equal(got.taps[:, 0] * s, At.taps[:, 0])
            assert np.array_equal(got.taps[:, 1:], At.taps[:, 1:])
        B = _diag(LaurentPoly({0: 1.0, 16: 1.0}))
        taps = B.taps.copy()
        taps[:, 1] *= 2.0**-40
        with pytest.raises(SingularLoopError, match="not invertible"):
            dual_loop(LoopMatrix.from_array(B.lo, taps))


class TestModulation:
    def test_haar_unitary(self, haar):
        pair, unit = modulation_matrix_check(haar, grid=64)
        assert unit < 1e-12
        assert pair < 1e-12

    def test_stretched_residual_one(self, stretched):
        pair, unit = modulation_matrix_check(stretched, grid=64)
        assert unit == pytest.approx(1.0, abs=1e-9)

    def test_random_pair(self, rng):
        bank = random_biorthogonal_bank(3, rng)
        pair, unit = modulation_matrix_check(bank, grid=64)
        assert pair < 1e-10
        assert unit > 1e-3


class TestBatchedMatchesPointwise:
    def banks(self, rng):
        return [
            haar_bank(),
            stretched_haar_bank(),
            stretched_haar_bank(with_duals=True),
            random_biorthogonal_bank(2, rng),
            random_biorthogonal_bank(3, rng),
            random_bank(3, rng),  # unstructured: residuals far from zero
        ]

    def test_modulation_matrix_stack(self, rng):
        bank = random_biorthogonal_bank(3, rng)
        stack = modulation_matrix(bank, 16, dual=True)
        assert stack.shape == (16, 3, 3)
        for t, z in enumerate(torus_grid(16)):
            assert np.abs(stack[t] - pointwise_modulation(bank, z, dual=True)).max() < 1e-12

    def test_modulation_check(self, rng):
        for bank in self.banks(rng):
            got = modulation_matrix_check(bank, grid=32)
            want = pointwise_modulation_check(bank, 32)
            assert got == pytest.approx(want, abs=1e-12)

    def test_loop_residuals(self, rng):
        for N in (2, 3):
            U = random_unitary_loop(N, rng)
            A = random_invertible_loop(N, rng)
            B, _ = loop_from_filters(random_bank(N, rng))
            for L in (U, A, B):
                got = loop_unitarity_residual(L, 32)
                assert abs(got - pointwise_unitarity_residual(L, 32)) < 1e-12
            At = dual_loop(A)
            assert abs(loop_pair_residual(A, At, 32) - pointwise_pair_residual(A, At, 32)) < 1e-12
            assert abs(loop_pair_residual(A, U, 32) - pointwise_pair_residual(A, U, 32)) < 1e-12


    def test_modulation_bound_matches_per_family_calls_bit_for_bit(self):
        # the equivalence suite's banks at its default seed: one stacked fold
        # and inverse FFT for both families, against one call per family
        rng = np.random.default_rng(DEFAULT_SEED)
        for s in range(50):
            bank = filters_from_loop(random_unitary_loop(2 + s % 2, rng))
            assert modulation_bound(bank) == per_family_modulation_bound(bank)
        for s in range(50):
            A, At = random_invertible_pair(2 + s % 2, rng)
            bank = FilterBank(A.N, filters_from_loop(A).filters, filters_from_loop(At).filters)
            assert modulation_bound(bank) == per_family_modulation_bound(bank)


class TestEquivalenceOfConditions:
    def test_unitary_loop_three_ways(self, rng):
        for N in (2, 3):
            A = random_unitary_loop(N, rng)
            bank = filters_from_loop(A)
            rep = relation_report(bank)
            _, unit = modulation_matrix_check(bank, grid=64)
            assert rep.cuntz
            assert loop_unitarity_residual(A, 64) < 1e-9
            assert unit < 1e-9

    def test_invertible_loop_three_ways(self, rng):
        for N in (2, 3):
            bank = random_biorthogonal_bank(N, rng)
            A, At = loop_from_filters(bank)
            rep = relation_report(bank)
            pair, _ = modulation_matrix_check(bank, grid=64)
            assert rep.biorthogonal
            assert loop_pair_residual(A, At, 64) < 1e-9
            assert pair < 1e-9


class TestGram:
    def test_haar_gram(self, haar):
        gf = gram_function(haar, grid=32)
        assert gf.gram.entries[0][0].isclose(LaurentPoly.one(), 1e-14)
        assert gf.gram.entries[0][1].isclose(LaurentPoly.zero(), 1e-15)
        # doubled matrix [[I, I], [I, I]] has rank 2 and eigenvalues {2, 0}
        # on each grid point, a layer of the sampled block matrix
        rep = sampled_choi(haar, 32).choi.report
        assert np.all(rep.kept.sum(axis=1) == 2)
        assert rep.min_eigenvalue > -1e-10
        assert np.allclose(rep.eigenvalues[0], [0, 0, 2, 2], atol=1e-12)

    def test_stretched_gram(self, stretched):
        gf = gram_function(stretched, grid=32)
        for i in range(4):
            for j in range(4):
                expect = LaurentPoly({0: 2.0}) if i == j else LaurentPoly.zero()
                assert gf.gram.entries[i][j].isclose(expect, 1e-13)
        rep = sampled_choi(stretched, 32, check=False).choi.report
        assert np.all(rep.kept.sum(axis=1) == 4)
        assert rep.min_eigenvalue > -1e-10
        assert np.allclose(rep.eigenvalues[0][4:], [2.5] * 4, atol=1e-12)

    @pytest.mark.parametrize(
        "name, params", [("haar", {}), ("stretched-haar-dual", {}), ("random-biorthogonal", {"N": 3})]
    )
    def test_certified_bank_takes_no_dual_loop(self, monkeypatch, name, params):
        # the bank's own pair certifies A: no dual is computed to be dropped
        def forbidden(A):
            raise AssertionError("dual_loop was called")

        monkeypatch.setattr(pp, "dual_loop", forbidden)
        bank = builtin_bank(name, params)
        assert bank.pair_bound <= DEFAULT_TOL
        gram_function(bank, grid=8)

    @pytest.mark.parametrize("name", ["stretched-haar", "diag(1 + z/2, 1)"])
    def test_uncertified_bank_is_judged_by_condition_bound(self, monkeypatch, name):
        # A* A != I on a self-dual bank that is not orthogonal: its pair bound
        # does not certify A, and the sigma_min bound judges it once, with no
        # dual computed to be dropped
        if name == "stretched-haar":
            bank = builtin_bank(name)
        else:
            bank = filters_from_loop(_diag(LaurentPoly({0: 1.0, 1: 0.5})))
        calls, real = [], pp.loop_condition_bound
        monkeypatch.setattr(pp, "loop_condition_bound", lambda A: calls.append(A) or real(A))
        monkeypatch.setattr(pp, "dual_loop", _forbidden)
        assert bank.pair_bound > DEFAULT_TOL
        gram_function(bank, grid=8)
        assert calls == [bank.loops[0]]

    def test_multiplier_cross_check(self, rng):
        # (AA*)_{j,i} is the multiplier of S_i^* S_j, exactly in coefficients
        from wavefock.laurent import adjoint_poly, decimate

        for _ in range(50):
            N = int(rng.integers(2, 4))
            bank = random_bank(N, rng)
            A, _ = loop_from_filters(bank)
            gram = (A @ A.adjoint()).entries
            for i in range(N):
                for j in range(N):
                    mult = decimate(adjoint_poly(bank.filters[i]) * bank.filters[j], N)
                    assert mult.isclose(gram[j][i], 1e-10)

    def test_singular_bank_rejected(self):
        bank = filters_from_loop(
            LoopMatrix(
                [
                    [LaurentPoly.one(), LaurentPoly.zero()],
                    [LaurentPoly.zero(), LaurentPoly({0: 1.0, 1: 1.0})],
                ]
            )
        )
        with pytest.raises(SingularLoopError):
            gram_function(bank)

    def test_rank_structure_random_pair(self, rng):
        bank = random_biorthogonal_bank(2, rng)
        sw = sampled_choi(bank, 16)
        rep = sw.choi.report
        assert np.all(rep.kept.sum(axis=1) == 2)
        # eigenvalues come in pairs lam + 1/lam alongside N zeros
        for t in range(16):
            lam = np.linalg.eigvalsh(sw.gram.samples[t])
            expected = np.sort(np.concatenate([lam + 1.0 / lam, np.zeros(2)]))
            assert np.allclose(rep.eigenvalues[t], expected, atol=1e-9)
