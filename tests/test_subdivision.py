import cmath
import math

import numpy as np
import pytest

from wavefock.corpus import (
    haar_bank,
    random_biorthogonal_bank,
    random_causal_pair,
    random_orthogonal_bank,
    stretched_haar_bank,
)
from wavefock.errors import (
    BadNormalizationError,
    DepthExceededError,
    NotReconstructiveError,
    SizeCapError,
)
from wavefock import polyphase
from wavefock.filterbank import FilterBank, apply_S
from wavefock.laurent import LaurentPoly
from oracles import loops_close
from wavefock.subdivision import (
    PRODUCT_ROWS,
    SignalWindow,
    decimate_adjoint,
    dense_slanted_matrix,
    fourier_product,
    pyramid,
    pyramid_reconstruct,
    subdivide,
)

SQRT2 = math.sqrt(2.0)
HAAR_C = LaurentPoly({0: 1 / SQRT2, 1: 1 / SQRT2})


def haar_transform_oracle(t):
    # independent closed form: unit-interval indicator has FT e^{-it/2} sin(t/2)/(t/2)
    if t == 0.0:
        return 1.0 + 0j
    return cmath.exp(-1j * t / 2) * math.sin(t / 2) / (t / 2)


def window_to_poly(x):
    return LaurentPoly.from_array(x.offset, x.samples)


def window_from_poly(p):
    return SignalWindow(p.lo, p.taps)


def random_signal(rng, span=8, terms=6):
    idx = rng.choice(np.arange(-span, span + 1), size=terms, replace=False)
    lo = int(idx.min())
    out = np.zeros(int(idx.max()) - lo + 1, dtype=complex)
    for k in idx:
        out[int(k) - lo] = complex(*rng.standard_normal(2))
    return SignalWindow(lo, out)


def random_filter(rng, span=4, terms=4):
    exps = rng.choice(np.arange(-span, span + 1), size=terms, replace=False)
    return LaurentPoly({int(k): complex(*rng.standard_normal(2)) for k in exps})


def pairing(x, y):
    lo = min(x.offset, y.offset) if not (x.is_zero or y.is_zero) else 0
    hi = max(x.last, y.last) if not (x.is_zero or y.is_zero) else -1
    return sum(x.value(i).conjugate() * y.value(i) for i in range(lo, hi + 1))


def subdivide_oracle(c, x, N):
    # the tap-by-sample loop that subdivide replaced
    if c.is_zero or x.is_zero:
        return SignalWindow.zero()
    lo = N * x.offset + c.min_exp
    hi = N * x.last + c.max_exp
    out = np.zeros(hi - lo + 1, dtype=complex)
    for k, ck in c.coeffs().items():
        for j, xj in enumerate(x.samples):
            i = k + N * (x.offset + j)
            out[i - lo] += ck * xj
    return SignalWindow(lo, out)


def decimate_adjoint_oracle(c, x, N):
    # the output-by-tap loop that decimate_adjoint replaced
    if c.is_zero or x.is_zero:
        return SignalWindow.zero()
    j_lo = math.ceil((x.offset - c.max_exp) / N)
    j_hi = math.floor((x.last - c.min_exp) / N)
    if j_hi < j_lo:
        return SignalWindow.zero()
    out = np.zeros(j_hi - j_lo + 1, dtype=complex)
    for j in range(j_lo, j_hi + 1):
        acc = 0j
        for k, ck in c.coeffs().items():
            acc += ck.conjugate() * x.value(k + N * j)
        out[j - j_lo] = acc
    return SignalWindow(j_lo, out)


def convolve_subdivide(c, x, N):
    # the per-phase convolution subdivide: phase r of the output is x
    # convolved with every N-th tap of c from tap r
    if c.is_zero or x.is_zero:
        return SignalWindow.zero()
    out = np.zeros(N * (len(x.samples) - 1) + len(c.taps), dtype=complex)
    for r in range(min(N, len(c.taps))):
        out[r::N] = np.convolve(x.samples, c.taps[r::N])
    return SignalWindow(N * x.offset + c.lo, out)


def convolve_decimate_adjoint(c, x, N):
    # the full correlation of x with c, every N-th lag kept
    if c.is_zero or x.is_zero:
        return SignalWindow.zero()
    corr = np.convolve(x.samples, c.taps[::-1].conj())
    j_lo = -((c.max_exp - x.offset) // N)
    return SignalWindow(j_lo, corr[N * j_lo + c.max_exp - x.offset :: N])


def convolution_pyramid(bank, x, depth):
    """(details, approx) of the per-band convolution pyramid: one
    decimation per band and level, each a window of its own."""
    duals, N = bank.duals_or_primaries, bank.N
    details = []
    for _ in range(depth):
        details.append([convolve_decimate_adjoint(duals[i], x, N) for i in range(1, N)])
        x = convolve_decimate_adjoint(duals[0], x, N)
    return details, x


def convolution_reconstruct(bank, details, approx):
    y = approx
    for level in reversed(details):
        y = convolve_subdivide(bank.filters[0], y, bank.N)
        for i, d in enumerate(level, start=1):
            y = y + convolve_subdivide(bank.filters[i], d, bank.N)
    return y


def oracle_cases(rng, N, count=60):
    """Gappy filters with span below and above N, offsets of both signs,
    signals down to one sample."""
    for t in range(count):
        span = int(rng.integers(0, N)) if t % 2 else int(rng.integers(N, 4 * N))
        lo = int(rng.integers(-2 * N, 2 * N))
        terms = int(rng.integers(1, span + 2))
        exps = rng.choice(np.arange(lo, lo + span + 1), size=terms, replace=False)
        c = LaurentPoly({int(k): complex(*rng.standard_normal(2)) for k in exps})
        length = 1 if t % 3 == 0 else int(rng.integers(2, 20))
        samples = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        yield c, SignalWindow(int(rng.integers(-25, 10)), samples)


def assert_same_window(got, want):
    assert got.offset == want.offset
    assert got.samples.shape == want.samples.shape
    assert np.allclose(got.samples, want.samples, rtol=0, atol=1e-12)


class TestSignalWindow:
    def test_trimming_and_zero(self):
        x = SignalWindow(3, [0, 0, 1.0, 2.0, 0])
        assert x.offset == 5
        assert len(x.samples) == 2
        assert SignalWindow(7, [0, 0]).is_zero

    def test_poly_round_trip(self, rng):
        for _ in range(20):
            x = random_signal(rng)
            assert window_from_poly(window_to_poly(x)).isclose(x, 0.0)

    def test_json_round_trip(self):
        x = SignalWindow(-2, [1 + 2j, 0.5, -1j])
        y = SignalWindow.from_json(x.to_json())
        assert y.isclose(x, 0.0)

    def test_csv_round_trip(self):
        x = SignalWindow(-1, [0.25, -1.5 + 0.5j, 3.0])
        y = SignalWindow.from_csv(x.to_csv())
        assert y.isclose(x, 0.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"re": [1.0]},
            {"offset": 0, "re": [1.0], "im": []},
            {"offset": 0, "re": 5},
            {"offset": 0.5, "re": [1.0]},
            {"offset": 0, "re": [None, 1.0]},
        ],
    )
    def test_json_malformed(self, bad):
        with pytest.raises(ValueError):
            SignalWindow.from_json(bad)

    def test_csv_malformed(self):
        with pytest.raises(ValueError):
            SignalWindow.from_csv("0,1.0\n")
        with pytest.raises(ValueError):
            SignalWindow.from_csv("index,re,im\n0,1.0,0\n0,2.0,0\n")
        with pytest.raises(ValueError):
            SignalWindow.from_csv("index,re,im\n0,nan,0\n")
        with pytest.raises(ValueError):
            SignalWindow.from_csv("index,re,im\n0,1.0,0\n1,0,inf\n")


class TestSubdivide:
    def test_haar_unit_sample(self):
        y = subdivide(HAAR_C, SignalWindow.unit(0), 2)
        assert y.offset == 0
        assert np.allclose(y.samples, [1 / SQRT2, 1 / SQRT2])

    def test_zero_signal(self):
        assert subdivide(HAAR_C, SignalWindow.zero(), 2).is_zero

    def test_fourier_consistency(self, rng):
        # sequence-side subdivide matches polynomial-side apply_S exactly
        for _ in range(100):
            N = int(rng.integers(2, 5))
            c = random_filter(rng)
            x = random_signal(rng)
            seq = window_to_poly(subdivide(c, x, N))
            pol = apply_S(c, window_to_poly(x), N)
            assert seq.isclose(pol, 1e-12)

    @pytest.mark.parametrize("N", range(2, 8))
    def test_matches_loop_oracle(self, rng, N):
        for c, x in oracle_cases(rng, N):
            assert_same_window(subdivide(c, x, N), subdivide_oracle(c, x, N))

    def test_window_growth(self, rng):
        c = LaurentPoly({-1: 1.0, 2: 1.0})
        x = SignalWindow(3, [1.0, 0.0, 2.0])
        y = subdivide(c, x, 2)
        assert y.offset >= 2 * 3 + (-1)
        assert y.last <= 2 * 5 + 2


class TestDecimateAdjoint:
    def test_haar_unit_sample(self):
        y = decimate_adjoint(HAAR_C, SignalWindow.unit(0), 2)
        assert y.offset == 0
        assert np.allclose(y.samples, [1 / SQRT2])

    def test_empty_decimation(self):
        # x sits on an odd index, which the even-lag decimation never reads
        assert decimate_adjoint(LaurentPoly.monomial(0), SignalWindow.unit(1), 2).is_zero

    @pytest.mark.parametrize("N", range(2, 8))
    def test_matches_loop_oracle(self, rng, N):
        for c, x in oracle_cases(rng, N):
            assert_same_window(decimate_adjoint(c, x, N), decimate_adjoint_oracle(c, x, N))

    def test_adjointness(self, rng):
        for _ in range(100):
            N = int(rng.integers(2, 4))
            c = random_filter(rng)
            x = random_signal(rng)
            y = random_signal(rng)
            lhs = pairing(decimate_adjoint(c, x, N), y)
            rhs = pairing(x, subdivide(c, y, N))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_haar_isometry(self, rng):
        for _ in range(20):
            x = random_signal(rng)
            y = decimate_adjoint(HAAR_C, subdivide(HAAR_C, x, 2), 2)
            assert y.isclose(x, 1e-12)


class TestSlantedMatrix:
    def test_haar_window(self):
        m = dense_slanted_matrix(HAAR_C, 2, (0, 3))
        s = 1 / SQRT2
        expect = np.array(
            [
                [s, 0, 0, 0],
                [s, 0, 0, 0],
                [0, s, 0, 0],
                [0, s, 0, 0],
            ]
        )
        assert np.allclose(m, expect)

    def test_delta_filter(self):
        m = dense_slanted_matrix(LaurentPoly.monomial(0), 3, (0, 6), (0, 2))
        for i in range(7):
            for j in range(3):
                assert m[i, j] == (1.0 if i == 3 * j else 0.0)

    def test_empty_window_rejected(self):
        for windows in [((3, 1),), ((0, 3), (3, 1))]:
            with pytest.raises(ValueError):
                dense_slanted_matrix(HAAR_C, 2, *windows)

    def test_matvec_matches_subdivide(self, rng):
        for _ in range(50):
            N = int(rng.integers(2, 4))
            c = random_filter(rng)
            x = random_signal(rng, span=5, terms=4)
            if x.is_zero or c.is_zero:
                continue
            rows = (N * x.offset + c.min_exp, N * x.last + c.max_exp)
            cols = (x.offset, x.last)
            m = dense_slanted_matrix(c, N, rows, cols)
            vec = np.array([x.value(j) for j in range(cols[0], cols[1] + 1)])
            y = subdivide(c, x, N)
            got = m @ vec
            want = np.array([y.value(i) for i in range(rows[0], rows[1] + 1)])
            assert np.allclose(got, want, atol=1e-12)


class TestPyramid:
    def test_haar_depth2_exact(self, haar):
        x = SignalWindow(0, [1.0, 2.0, 3.0, 4.0])
        pyr = pyramid(haar, x, 2)
        assert pyr.depth == 2
        y = pyramid_reconstruct(haar, pyr)
        assert y.isclose(x, 1e-12)

    def test_zero_signal(self, haar):
        pyr = pyramid(haar, SignalWindow.zero(), 3)
        assert pyr.approx.is_zero
        assert all(d.is_zero for level in pyr.details for d in level)

    def test_biorthogonal_depth3(self, rng):
        bank = random_biorthogonal_bank(2, rng)
        for _ in range(5):
            x = random_signal(rng, span=10, terms=8)
            pyr = pyramid(bank, x, 3)
            y = pyramid_reconstruct(bank, pyr)
            assert (y - x).norm() < 1e-10 * max(1.0, x.norm())

    def test_depth5_haar(self, haar, rng):
        x = random_signal(rng, span=16, terms=12)
        y = pyramid_reconstruct(haar, pyramid(haar, x, 5))
        assert (y - x).norm() < 1e-10

    @pytest.mark.parametrize(
        "make_bank",
        [
            lambda rng: random_biorthogonal_bank(2, rng),
            lambda rng: random_orthogonal_bank(3, rng),
            lambda rng: stretched_haar_bank(with_duals=True),
        ],
        ids=["biorthogonal-N2", "orthogonal-N3", "stretched-haar-dual-N4"],
    )
    def test_long_signal_depth3(self, rng, make_bank):
        bank = make_bank(rng)
        length = 10_000
        x = SignalWindow(-length // 3, rng.standard_normal(length) + 1j * rng.standard_normal(length))
        y = pyramid_reconstruct(bank, pyramid(bank, x, 3))
        assert np.max(np.abs((y - x).samples), initial=0.0) < 1e-10

    def test_not_reconstructive(self, stretched):
        with pytest.raises(NotReconstructiveError):
            pyramid(stretched, SignalWindow.unit(0), 1)

    def test_band_count(self, stretched_dual):
        x = SignalWindow(0, np.arange(1.0, 9.0))
        pyr = pyramid(stretched_dual, x, 2)
        assert len(pyr.details) == 2
        assert all(len(level) == 3 for level in pyr.details)
        y = pyramid_reconstruct(stretched_dual, pyr)
        assert y.isclose(x, 1e-11)


PYRAMID_FAMILIES = {
    "orthogonal": random_orthogonal_bank,
    "biorthogonal": random_biorthogonal_bank,
    "causal-pair": random_causal_pair,
}


def assert_windows_equal(got, want):
    assert got.offset == want.offset
    assert np.array_equal(got.samples, want.samples)


class TestBankReuse:
    """A bank builds its loops and pairing bound on first use, for every
    later pyramid and reconstruction."""

    def test_loops_built_once(self, rng, monkeypatch):
        bank = random_biorthogonal_bank(2, rng)
        calls = []
        build = polyphase.loop_from_filters
        monkeypatch.setattr(
            polyphase, "loop_from_filters", lambda b: calls.append(b) or build(b)
        )
        for _ in range(3):
            x = random_signal(rng, span=10, terms=8)
            y = pyramid_reconstruct(bank, pyramid(bank, x, 3))
            assert (y - x).norm() < 1e-10 * max(1.0, x.norm())
        assert calls == [bank]

    def test_mismatched_duals_refused_every_call(self, rng):
        bank, other = random_biorthogonal_bank(2, rng), random_biorthogonal_bank(2, rng)
        mismatched = FilterBank(2, bank.filters, other.dual_filters)
        for _ in range(3):
            with pytest.raises(NotReconstructiveError):
                pyramid(mismatched, random_signal(rng), 2)

    @pytest.mark.parametrize("family", sorted(PYRAMID_FAMILIES))
    def test_reused_bank_matches_fresh_bank(self, rng, family):
        bank = PYRAMID_FAMILIES[family](3, rng)
        for x, depth in pyramid_signals(rng, 3, count=6):
            fresh = FilterBank(bank.N, bank.filters, bank.dual_filters)
            got, want = pyramid(bank, x, depth), pyramid(fresh, x, depth)
            assert_windows_equal(got.approx, want.approx)
            for level, fresh_level in zip(got.details, want.details, strict=True):
                for d, fresh_d in zip(level, fresh_level, strict=True):
                    assert_windows_equal(d, fresh_d)
            assert_windows_equal(
                pyramid_reconstruct(bank, got),
                pyramid_reconstruct(FilterBank(bank.N, bank.filters, bank.dual_filters), want),
            )

    def test_bank_and_loops_are_read_only(self, stretched_dual):
        with pytest.raises(TypeError):
            stretched_dual.filters[0] = LaurentPoly.one()
        with pytest.raises(AttributeError):
            stretched_dual.dual_filters = None
        for loop in stretched_dual.loops:
            with pytest.raises(ValueError):
                loop.taps[0, 0, 0] = 0.0

    def test_filter_taps_are_read_only(self, stretched_dual):
        # a write to a filter would leave the cached loops stale
        bank = haar_bank()
        A = bank.loops[0]
        with pytest.raises(ValueError):
            bank.filters[0].taps[0] = 5.0
        assert loops_close(A, polyphase.loop_from_filters(bank)[0], 0.0)
        for p in stretched_dual.filters + stretched_dual.dual_filters:
            assert not p.taps.flags.writeable

    def test_bank_owns_its_taps(self):
        # from_array keeps the caller's memory: [0, 1, 1] is held as the view
        # arr[1:], an untrimmed array as itself, and a read-only view still
        # shares its writable base
        arr = np.array([0, 1, 1], dtype=complex)
        whole = np.array([1, -1], dtype=complex)
        base = np.array([2, 3], dtype=complex)
        view = base[:]
        view.flags.writeable = False
        bank = FilterBank(
            2,
            [LaurentPoly.from_array(0, arr), LaurentPoly.from_array(0, whole)],
            [LaurentPoly.from_array(0, view), LaurentPoly.one()],
        )
        loops = [loop.taps.copy() for loop in bank.loops]
        arr[1], whole[0], base[0] = 5, 7, 9
        assert arr.flags.writeable and whole.flags.writeable and base.flags.writeable
        assert [p.coeffs() for p in bank.filters + bank.dual_filters] == [
            {1: 1, 2: 1}, {0: 1, 1: -1}, {0: 2, 1: 3}, {0: 1}
        ]
        for loop, fresh, taps in zip(bank.loops, polyphase.loop_from_filters(bank), loops):
            assert np.array_equal(loop.taps, taps)
            assert loops_close(fresh, loop, 0.0)

    def test_loop_build_cap_refuses_pyramid(self):
        bank = FilterBank(4, [LaurentPoly.monomial(k) for k in (0, 1, 2, 2**20 - 1)])
        with pytest.raises(SizeCapError):
            pyramid(bank, SignalWindow(0, np.ones(8)), 1)


def pyramid_signals(rng, N, count=12):
    """Lengths 1..4 (shorter than most filters), then 5..300, and last one
    whose first level spans more than one chunk of the loop product;
    offsets of both signs and a run of zeros inside the window."""
    for t in range(count):
        length = t + 1 if t < 4 else int(rng.integers(5, 301))
        if t == count - 1:
            length = N * PRODUCT_ROWS + int(rng.integers(1, 2 * N))
        x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        if length > 8:
            start = int(rng.integers(1, length - 6))
            x[start : start + int(rng.integers(1, 6))] = 0
        yield SignalWindow(int(rng.integers(-400, 400)), x), int(rng.integers(1, 5))


def assert_relatively_close(got, want, rel=1e-12):
    assert np.abs((got - want).samples).max(initial=0.0) <= rel * max(
        1.0, np.abs(want.samples).max(initial=0.0)
    )


class TestPyramidOracle:
    @pytest.mark.parametrize("family", sorted(PYRAMID_FAMILIES))
    @pytest.mark.parametrize("N", range(2, 8))
    def test_matches_convolution_pyramid(self, rng, family, N):
        bank = PYRAMID_FAMILIES[family](N, rng)
        for x, depth in pyramid_signals(rng, N):
            pyr = pyramid(bank, x, depth, check=False)
            details, approx = convolution_pyramid(bank, x, depth)
            for got, want in zip(
                [pyr.approx] + sum(pyr.details, []), [approx] + sum(details, [])
            ):
                assert (got.offset, len(got.samples)) == (want.offset, len(want.samples))
                assert_relatively_close(got, want)
            # the reconstructions sum in another order, so their roundoff
            # tails may end at other indices
            y = pyramid_reconstruct(bank, pyr)
            assert_relatively_close(y, convolution_reconstruct(bank, details, approx))
            assert_relatively_close(y, x, 1e-9)


class TestFourierProduct:
    def test_haar_at_zero(self):
        assert fourier_product(HAAR_C, 2, 0.0, J=10) == pytest.approx(1.0)

    def test_haar_at_pi(self):
        val = fourier_product(HAAR_C, 2, math.pi, J=40)
        assert abs(abs(val) - 2.0 / math.pi) < 1e-8

    def test_haar_closed_form_sweep(self):
        for k in range(1, 61):
            t = 0.1 * k
            val = fourier_product(HAAR_C, 2, t, J=40)
            assert abs(val - haar_transform_oracle(t)) < 1e-7

    def test_stretched_converges(self):
        m0 = LaurentPoly({0: 1.0, 2: 1.0})  # m0(1) = 2 = sqrt(4)
        a = fourier_product(m0, 4, 2 * math.pi, J=30)
        b = fourier_product(m0, 4, 2 * math.pi, J=60)
        assert np.isfinite(a.real) and np.isfinite(a.imag)
        assert abs(a - b) < 1e-10

    def test_bad_normalisation(self):
        with pytest.raises(BadNormalizationError):
            fourier_product(HAAR_C, 4, 1.0, J=10)

    def test_auto_depth(self):
        val = fourier_product(HAAR_C, 2, 0.5)
        assert abs(val - haar_transform_oracle(0.5)) < 1e-9

    def test_auto_depth_cap_raises(self):
        # inside the normalisation tolerance, but m0(1)/sqrt(2) misses 1 by
        # 1e-10, so the stop rule is never met
        m0 = haar_bank().filters[0] * (1 + 1e-10)
        with pytest.raises(DepthExceededError):
            fourier_product(m0, 2, 1.0)

    def test_deep_product_has_no_overflow(self):
        # N^J exceeds the float range; the angles underflow to 0 instead
        val = fourier_product(HAAR_C, 2, 1.0, J=1200)
        assert abs(val - haar_transform_oracle(1.0)) < 1e-12
