import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavefock
from oracles import DictPoly, TorusPoint, phase_sum_values, torus_grid
from wavefock.laurent import (
    MAX_JSON_SPAN,
    LaurentPoly,
    adjoint_poly,
    circle_values,
    decimate,
    poly_from_json,
    poly_to_json,
    polys_from_grid,
    upsample,
)

SQRT2 = math.sqrt(2.0)


def horner_eval(p, z):
    """Independent dense Horner evaluation, used as oracle for eval()."""
    if p.is_zero:
        return 0j
    lo, hi = p.min_exp, p.max_exp
    dense = [p.coeff(k) for k in range(lo, hi + 1)]
    acc = 0j
    for c in reversed(dense):
        acc = acc * z + c
    return acc * z**lo


coeff_st = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
poly_st = st.dictionaries(st.integers(-12, 12), coeff_st, max_size=9).map(LaurentPoly)


class TestTorusPoint:
    def test_angle_normalised(self):
        assert TorusPoint(2 * math.pi + 0.5).angle == pytest.approx(0.5)
        assert TorusPoint(-0.5).angle == pytest.approx(2 * math.pi - 0.5)

    def test_value_on_circle(self):
        for t in torus_grid(17):
            assert abs(abs(t.value) - 1.0) < 1e-15

    def test_principal_root(self):
        z = TorusPoint(math.pi)
        r = z.root(2)
        assert r.angle == pytest.approx(math.pi / 2)
        assert r.power(2).value == pytest.approx(z.value)

    def test_root_branches_cover_fiber(self):
        z = TorusPoint(1.0)
        roots = [z.root(3, b).value for b in range(3)]
        for w in roots:
            assert w**3 == pytest.approx(z.value)
        assert len({round(w.real, 9) for w in roots}) == 3


class TestEval:
    def test_direct_substitution(self):
        p = LaurentPoly({0: 1, 2: 1})
        assert p.eval(1j) == pytest.approx(0.0)

    def test_lowpass_normalisation_at_one(self):
        p = LaurentPoly({0: 1 / SQRT2, 1: 1 / SQRT2})
        assert p.eval(1.0) == pytest.approx(SQRT2)

    def test_matches_horner_oracle(self):
        p = LaurentPoly({0: 1, 2: 1})
        z = TorusPoint(math.pi / 3).value
        assert abs(p.eval(z) - horner_eval(p, z)) < 1e-14
        for t in torus_grid(128):
            assert abs(p.eval(t.value) - horner_eval(p, t.value)) < 1e-14

    @given(poly_st)
    @settings(max_examples=50, deadline=None)
    def test_horner_oracle_random(self, p):
        for t in torus_grid(8):
            n = max(len(p.support), 1)
            assert abs(p.eval(t.value) - horner_eval(p, t.value)) < 1e-10 * n

    def test_eval_grid_matches_pointwise(self):
        p = LaurentPoly({-2: 1j, 0: 0.5, 3: -1.0})
        vals = p.eval_grid(16)
        for i, t in enumerate(torus_grid(16)):
            assert vals[i] == pytest.approx(p.eval(t.value))

    def test_eval_grid_of_zero_poly(self):
        assert np.array_equal(LaurentPoly.zero().eval_grid(5), np.zeros(5))


class TestCircleValues:
    @pytest.mark.parametrize("shape", [(7,), (7, 3), (7, 2, 2), (40, 2, 2)])
    @pytest.mark.parametrize("lo", [-23, -1, 0, 5])
    @pytest.mark.parametrize("M", [1, 2, 6, 8, 13])
    def test_matches_phase_sum(self, rng, shape, lo, M):
        # M below the tap count folds several exponents onto one point
        taps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = circle_values(lo, taps, M)
        assert got.shape == (M,) + shape[1:]
        scale = np.abs(taps).sum(axis=0).max()
        assert np.abs(got - phase_sum_values(lo, taps, M)).max() <= 1e-12 * scale

    def test_one_sampler_in_the_package(self):
        # circle values and their inverse have one home; any other FFT or
        # angle grid in the package is a second sampler
        root = Path(wavefock.__file__).parent
        for path in sorted(root.glob("*.py")):
            source = path.read_text()
            assert "def grid_angles" not in source, path.name
            if path.name != "laurent.py":
                assert "np.fft" not in source, path.name


class TestPolysFromGrid:
    @given(poly_st)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_on_window(self, p):
        for M in (25, 32, 41):  # any M past the window reads the same coefficients back
            coeffs = polys_from_grid(circle_values(p.lo, p.taps, M), -12)
            assert coeffs.shape == (M,)
            assert LaurentPoly.from_array(-12, coeffs).isclose(p, 1e-12 * max(1.0, p.coeff_sup()))

    def test_stacked_values_give_coefficient_stack(self):
        polys = [
            [LaurentPoly({-1: 1.0, 2: 2j}), LaurentPoly.zero()],
            [LaurentPoly.one(), LaurentPoly({0: 3.0, 1: -1.0})],
        ]
        M = 6
        values = np.array([[p.eval_grid(M) for p in row] for row in polys]).transpose(2, 0, 1)
        got = polys_from_grid(values, -2)
        assert got.shape == (M, 2, 2)
        for i in range(2):
            for j in range(2):
                assert LaurentPoly.from_array(-2, got[:, i, j]).isclose(polys[i][j], 1e-13)
        # the zero entry keeps none of the DFT's roundoff
        assert LaurentPoly.from_array(-2, got[:, 0, 1]).is_zero

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_cut_is_relative_to_the_stack(self, scale):
        p = LaurentPoly({-1: 1.0, 0: 1e-9, 3: 0.5j}) * scale
        got = LaurentPoly.from_array(-2, polys_from_grid(p.eval_grid(8), -2))
        assert got.support == p.support
        assert got.isclose(p, 1e-13 * scale)

    def test_window_too_small_aliases(self):
        # z^3 on 3 points is indistinguishable from z^0
        aliased = polys_from_grid(LaurentPoly.monomial(3).eval_grid(3), 0)
        assert LaurentPoly.from_array(0, aliased).isclose(LaurentPoly.one(), 1e-13)


class TestAdjoint:
    def test_monomial(self):
        assert adjoint_poly(LaurentPoly({1: 1})) == LaurentPoly({-1: 1})

    def test_single_term_with_phase(self):
        assert adjoint_poly(LaurentPoly({3: 2 + 1j})) == LaurentPoly({-3: 2 - 1j})

    def test_haar_lowpass(self):
        p = LaurentPoly({0: 1 / SQRT2, 1: 1 / SQRT2})
        q = adjoint_poly(p)
        # oracle: pointwise conjugation on 64 torus samples
        for t in torus_grid(64):
            assert abs(q.eval(t.value) - p.eval(t.value).conjugate()) < 1e-14
        assert q == LaurentPoly({0: 1 / SQRT2, -1: 1 / SQRT2})

    @given(poly_st)
    @settings(max_examples=50, deadline=None)
    def test_involution_and_conjugation(self, p):
        q = adjoint_poly(p)
        assert adjoint_poly(q) == p
        for t in torus_grid(8):
            n = max(len(p.support), 1)
            assert abs(q.eval(t.value) - p.eval(t.value).conjugate()) < 1e-9 * n


class TestDecimate:
    def test_mode_divisible(self):
        assert decimate(LaurentPoly({6: 1}), 2) == LaurentPoly({3: 1})

    def test_mode_not_divisible(self):
        assert decimate(LaurentPoly({5: 1}), 2).is_zero

    def test_stretched_haar_magnitude_sum(self):
        # |1 + z^2|^2 = 2 + z^2 + z^-2; its 4-fold decimation is the constant 2
        p = LaurentPoly({0: 2, 2: 1, -2: 1})
        assert decimate(p, 4) == LaurentPoly({0: 2})

    @given(poly_st, st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_fiber_average(self, p, N):
        # decimate(p, N)(z) = (1/N) sum of p over the N-th roots of z
        for t in torus_grid(6):
            avg = sum(p.eval(t.root(N, b).value) for b in range(N)) / N
            n = max(len(p.support), 1)
            assert abs(decimate(p, N).eval(t.value) - avg) < 1e-10 * n


class TestUpsample:
    def test_monomial(self):
        assert upsample(LaurentPoly({3: 1}), 2) == LaurentPoly({6: 1})

    def test_binomial(self):
        assert upsample(LaurentPoly({0: 1, 1: 1}), 4) == LaurentPoly({0: 1, 4: 1})

    def test_round_trip_seeded(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            exps = rng.choice(np.arange(-10, 11), size=9, replace=False)
            p = LaurentPoly({int(k): complex(*rng.standard_normal(2)) for k in exps})
            assert decimate(upsample(p, 3), 3) == p

    @given(poly_st, st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, p, N):
        assert decimate(upsample(p, N), N) == p

    @given(poly_st, st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_substitution(self, p, N):
        q = upsample(p, N)
        for t in torus_grid(5):
            n = max(len(p.support), 1)
            assert abs(q.eval(t.value) - p.eval(t.power(N).value)) < 1e-9 * n


class TestArithmetic:
    @given(poly_st, poly_st)
    @settings(max_examples=50, deadline=None)
    def test_product_rule(self, p, q):
        r = p * q
        bound = 1e-9 * max(len(p.support) * len(q.support), 1)
        for t in torus_grid(8):
            z = t.value
            assert abs(r.eval(z) - p.eval(z) * q.eval(z)) < bound

    def test_product_rule_64_points(self):
        p = LaurentPoly({-1: 0.5j, 0: 1, 2: -0.25})
        q = LaurentPoly({0: 1 / SQRT2, 1: 1 / SQRT2})
        r = p * q
        for t in torus_grid(64):
            z = t.value
            assert abs(r.eval(z) - p.eval(z) * q.eval(z)) < 1e-12 * 6

    def test_no_absolute_prune(self):
        # only exact zeros are dropped, so tiny scales keep their supports
        p = LaurentPoly({0: 1e-8, 1: 1e-8})
        assert (p * p).support == [0, 1, 2]
        assert (p * p).coeff(1) == pytest.approx(2e-16)
        assert not LaurentPoly({0: 1e-15}).is_zero
        assert LaurentPoly({0: 1.0, 5: 1e-20}).support == [0, 5]

    def test_exact_zeros_trimmed(self):
        p = LaurentPoly({-3: 0.0, 0: 1.0, 2: 0.0, 4: 2.0, 6: 0.0})
        assert (p.min_exp, p.max_exp, p.support) == (0, 4, [0, 4])
        assert (p - p).is_zero
        assert LaurentPoly.from_array(5, np.zeros(3)) == LaurentPoly.zero()

    def test_scalar_and_shift(self):
        p = LaurentPoly({0: 1, 1: 2})
        assert 2 * p == LaurentPoly({0: 2, 1: 4})
        assert p.shift(-3) == LaurentPoly({-3: 1, -2: 2})


gauss_int = st.integers(-8, 8)
dyadic_st = st.dictionaries(st.integers(-12, 12), st.builds(complex, gauss_int, gauss_int), max_size=9)


class TestDictOracle:
    """Array arithmetic against the dict oracle at scales c in [1e-8, 1e8]."""

    @staticmethod
    def pairs(p, q, dp, dq, N):
        return [
            ("+", p + q, dp + dq),
            ("-", p - q, dp - dq),
            ("*", p * q, dp * dq),
            ("adjoint", adjoint_poly(p), dp.adjoint()),
            ("decimate", decimate(p, N), dp.decimate(N)),
            ("upsample", upsample(p, N), dp.upsample(N)),
        ]

    @given(dyadic_st, dyadic_st, st.integers(-26, 26), st.integers(2, 5))
    @settings(max_examples=100, deadline=None)
    def test_exact_at_dyadic_scales(self, a, b, e, N):
        # Gaussian-integer coefficients times c = 2^e: every operation is
        # exact on both sides, so supports and values must agree exactly
        c = 2.0**e
        p, q = LaurentPoly(a) * c, LaurentPoly(b) * c
        for name, got, want in self.pairs(p, q, DictPoly(a).scale(c), DictPoly(b).scale(c), N):
            assert got.coeffs() == want.coeffs(), name

    @given(poly_st, poly_st, st.floats(1e-8, 1e8), st.integers(2, 5))
    @settings(max_examples=100, deadline=None)
    def test_any_scale(self, a, b, c, N):
        p, q = a * c, b * c
        dp, dq = DictPoly.of(a).scale(c), DictPoly.of(b).scale(c)
        for name, got, want in self.pairs(p, q, dp, dq, N):
            if name != "*":  # no rounding: the same values on the same support
                assert got.coeffs() == want.coeffs(), name
                continue
            # products differ in summation order only: by roundoff of c^2, and
            # a coefficient on one side alone is that roundoff
            bound = 1e-13 * c * c * max(1.0, a.coeff_sup() * b.coeff_sup() * len(a.support))
            got_c, want_c = got.coeffs(), want.coeffs()
            for k in set(got_c) | set(want_c):
                assert abs(got_c.get(k, 0j) - want_c.get(k, 0j)) <= bound


class TestJson:
    def test_round_trip(self):
        p = LaurentPoly({-2: 1j, 0: 0.5, 7: -3.0})
        obj = poly_to_json(p)
        assert obj == [[-2, 0.0, 1.0], [0, 0.5, 0.0], [7, -3.0, 0.0]]
        assert poly_from_json(json.loads(json.dumps(obj))) == p

    @given(poly_st)
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random(self, p):
        assert poly_from_json(poly_to_json(p)) == p

    @pytest.mark.parametrize(
        "bad",
        [
            {"0": 1.0},
            [[0, 1.0]],
            [[0.5, 1.0, 0.0]],
            [[1, 0.0, 0.0], [0, 1.0, 0.0]],
            [[0, 1.0, 0.0], [0, 2.0, 0.0]],
            [[1 << 20, 1.0, 0.0]],
            [[-(1 << 20), 1.0, 0.0]],
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            poly_from_json(bad)

    def test_span_is_bounded(self):
        # the dense window of a read polynomial is bounded before it is allocated
        assert poly_from_json([[-3, 1.0, 0.0], [MAX_JSON_SPAN - 4, 1.0, 0.0]]).support == [
            -3,
            MAX_JSON_SPAN - 4,
        ]
        with pytest.raises(ValueError, match="spans more than"):
            poly_from_json([[-3, 1.0, 0.0], [MAX_JSON_SPAN - 3, 1.0, 0.0]])
