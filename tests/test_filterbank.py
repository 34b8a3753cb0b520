import itertools
import math

import numpy as np
import pytest

from wavefock.corpus import (
    builtin_bank,
    random_bank,
    random_biorthogonal_bank,
    random_causal_pair,
    random_orthogonal_bank,
)
from wavefock.errors import DualLengthMismatchError, NotReconstructiveError, SizeCapError
from wavefock.filterbank import (
    FilterBank,
    apply_S,
    apply_S_adjoint,
    module_expand,
    module_reconstruct,
    relation_report,
)
from wavefock import filterbank, polyphase
from wavefock.laurent import LaurentPoly, adjoint_poly, decimate, poly_window, upsample
from wavefock.polyphase import loop_unitarity_residual, loop_from_filters, modulation_bound
from oracles import eager_relation_json

SQRT2 = math.sqrt(2.0)
HAAR_M0 = LaurentPoly({0: 1 / SQRT2, 1: 1 / SQRT2})


def l2_pairing(f, g):
    keys = set(f.coeffs()) | set(g.coeffs())
    return sum(f.coeff(k).conjugate() * g.coeff(k) for k in keys)


def random_poly(rng, span=8, terms=5):
    exps = rng.choice(np.arange(-span, span + 1), size=terms, replace=False)
    return LaurentPoly({int(k): complex(*rng.standard_normal(2)) for k in exps})


# ----------------------------------------------------------------------
# oracles: the exhaustive forms the library no longer computes


def wide_completeness_residual(filters, duals, N, mode_range):
    """sum_i S_i Sdual_i^* e_n - e_n over every |n| <= mode_range."""
    worst = 0.0
    for n in range(-mode_range, mode_range + 1):
        e_n = LaurentPoly.monomial(n)
        total = LaurentPoly.zero()
        for m, md in zip(filters, duals):
            total = total + apply_S(m, apply_S_adjoint(md, e_n, N), N)
        worst = max(worst, (total - e_n).coeff_norm())
    return worst


def word_chain(bank, f, word):
    """Sdual_{i_k}^* ... Sdual_{i_1}^* f, rebuilt from f for one word."""
    g = f
    for i in word:
        g = apply_S_adjoint(bank.duals_or_primaries[i], g, bank.N)
    return g


def word_basis(bank, word):
    """b_w = m_{i_1}(z) m_{i_2}(z^N) ... m_{i_k}(z^{N^(k-1)})."""
    b = LaurentPoly.one()
    scale = 1
    for i in word:
        b = b * upsample(bank.filters[i], scale)
        scale *= bank.N
    return b


BUILTIN_BANKS = [
    ("haar", {}),
    ("stretched-haar", {}),
    ("stretched-haar-dual", {}),
    ("identity-loop", {"N": 2}),
    ("identity-loop", {"N": 5}),
    ("random-orthogonal", {"seed": 3}),
    ("random-biorthogonal", {"seed": 3}),
    ("random-causal-pair", {"seed": 7}),
]


def _random_banks():
    out = []
    for N in range(2, 8):
        rng = np.random.default_rng(100 + N)
        out += [
            (f"orthogonal-{N}", random_orthogonal_bank(N, rng)),
            (f"biorthogonal-{N}", random_biorthogonal_bank(N, rng)),
            (f"causal-pair-{N}", random_causal_pair(N, rng)),
            (f"unstructured-{N}", random_bank(N, rng)),
        ]
    return out


RANDOM_BANKS = _random_banks()


class TestBankBasics:
    def test_filter_count_enforced(self):
        with pytest.raises(DualLengthMismatchError):
            FilterBank(2, [HAAR_M0])
        with pytest.raises(DualLengthMismatchError):
            FilterBank(2, [HAAR_M0, HAAR_M0], [HAAR_M0])

    def test_genus(self, haar, stretched):
        assert haar.genus == 1
        assert stretched.genus == 1
        wide = FilterBank(2, [LaurentPoly({-3: 1, 3: 1}), LaurentPoly({0: 1})])
        assert wide.genus == 2

    def test_windows_read_once(self, monkeypatch):
        # the relation cap, modulation_bound and genus share one window per family
        rng = np.random.default_rng(3)
        window = filterbank.poly_window
        for bank in (random_biorthogonal_bank(3, rng), random_orthogonal_bank(2, rng)):
            calls = []
            monkeypatch.setattr(
                filterbank, "poly_window", lambda polys: calls.append(polys) or window(polys)
            )
            for _ in range(2):
                relation_report(bank)
                modulation_bound(bank)
                bank.genus
            assert calls == [bank.filters] + ([] if bank.is_self_dual else [bank.dual_filters])

    def test_pair_bound_refused_before_any_loop(self, monkeypatch):
        # {1, z^(10^6)} at N = 2: A* A would hold 4 (2 x 500001 - 1) entries
        def forbidden(bank):
            raise AssertionError("a loop was built")

        monkeypatch.setattr(polyphase, "loop_from_filters", forbidden)
        bank = FilterBank(2, [LaurentPoly.one(), LaurentPoly.monomial(10**6)])
        with pytest.raises(SizeCapError, match="4000004 entries"):
            bank.pair_bound

    def test_genus_from_both_windows(self):
        # the union of the families' windows, with a zero family held as one zero tap
        zero = LaurentPoly.zero()
        cases = [
            ([LaurentPoly({-5: 1}), LaurentPoly({0: 1})], [LaurentPoly({2: 1}), LaurentPoly({3: 1})]),
            ([LaurentPoly({1: 1}), LaurentPoly({2: 1})], [LaurentPoly({-7: 1}), zero]),
            ([zero, zero], [LaurentPoly({-3: 1}), LaurentPoly({-2: 1})]),
            ([LaurentPoly({4: 1}), zero], None),
        ]
        for filters, duals in cases:
            lo, width = poly_window(filters + (duals or []))
            want = max(1, math.ceil((max(-lo, lo + width - 1) + 1) / 2))
            assert FilterBank(2, filters, duals).genus == want

    def test_json_round_trip(self, haar, stretched_dual):
        for bank in (haar, stretched_dual):
            again = FilterBank.from_json(bank.to_json())
            assert again.N == bank.N
            assert again.filters == bank.filters
            assert again.dual_filters == bank.dual_filters

    def test_json_rejects_malformed(self):
        with pytest.raises(ValueError):
            FilterBank.from_json({"filters": []})


class TestApplyS:
    def test_vacuum_constant(self):
        assert apply_S(HAAR_M0, LaurentPoly.one(), 2) == HAAR_M0

    def test_stretched_on_mode(self):
        m = LaurentPoly({0: 1, 2: 1})
        out = apply_S(m, LaurentPoly.monomial(1), 4)
        assert out == LaurentPoly({4: 1, 6: 1})

    def test_adjoint_on_vacuum_mode(self):
        out = apply_S_adjoint(HAAR_M0, LaurentPoly.monomial(0), 2)
        assert out.isclose(LaurentPoly({0: 1 / SQRT2}), 1e-15)

    def test_adjoint_on_negative_mode(self):
        out = apply_S_adjoint(HAAR_M0, LaurentPoly.monomial(-1), 2)
        assert out.isclose(LaurentPoly({-1: 1 / SQRT2}), 1e-15)

    def test_adjointness_pairing(self, rng):
        # <S* f, g> = <f, S g> for the l2 coefficient pairing
        for _ in range(100):
            m = random_poly(rng, span=4, terms=4)
            f = random_poly(rng)
            g = random_poly(rng)
            lhs = l2_pairing(apply_S_adjoint(m, f, 3), g)
            rhs = l2_pairing(f, apply_S(m, g, 3))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_sstar_s_is_multiplication(self, rng):
        # S_i^* S_j f = decimate(adjoint(m_i) m_j, N) * f, exactly
        for _ in range(25):
            mi = random_poly(rng, span=5, terms=4)
            mj = random_poly(rng, span=5, terms=4)
            f = random_poly(rng)
            lhs = apply_S_adjoint(mi, apply_S(mj, f, 2), 2)
            mult = decimate(adjoint_poly(mi) * mj, 2)
            assert lhs.isclose(mult * f, 1e-10)


class TestRelationReport:
    def test_haar_is_cuntz(self, haar):
        rep = relation_report(haar)
        assert max(max(row) for row in rep.self_residuals) < 1e-12
        assert rep.completeness_residual < 1e-12
        assert rep.isometry and rep.orthogonal_ranges and rep.cuntz
        assert rep.biorthogonal  # self-dual orthogonal bank is its own dual pair

    def test_stretched_self_dual_fails_isometry(self, stretched):
        rep = relation_report(stretched)
        # the 4-fold average of |m_0|^2 is the constant 2, so the residual is 1
        assert rep.self_residuals[0][0] == pytest.approx(1.0, abs=1e-12)
        assert not rep.isometry
        assert not rep.cuntz

    def test_stretched_dual_pair_verdict(self, stretched_dual):
        rep = relation_report(stretched_dual)
        pair = max(max(row) for row in rep.pair_residuals)
        assert pair < 1e-12
        assert rep.completeness_residual < 1e-12
        assert rep.biorthogonal
        assert not rep.cuntz

    def test_random_dual_pair(self, rng):
        bank = random_biorthogonal_bank(2, rng)
        A, _ = loop_from_filters(bank)
        assert loop_unitarity_residual(A, 64) > 1e-3  # generically not unitary
        rep = relation_report(bank)
        assert rep.biorthogonal
        assert not rep.cuntz

    def test_report_json_shape(self, haar):
        obj = relation_report(haar).to_json()
        assert set(obj["verdicts"]) == {
            "isometry",
            "orthogonal_ranges",
            "cuntz",
            "biorthogonal",
        }
        assert len(obj["pair_residuals"]) == 2
        assert "mode_range" not in obj


def _assert_completeness_matches_wide_loop(bank):
    # the batched contraction sums in another order than the per-mode
    # products, so the two agree to roundoff, not bit for bit
    rep = relation_report(bank)
    R = max(bank.N * bank.genus, 8)
    N = bank.N
    for got, duals in (
        (rep.self_completeness_residual, bank.filters),
        (rep.completeness_residual, bank.duals_or_primaries),
    ):
        want = wide_completeness_residual(bank.filters, duals, N, R)
        assert abs(got - want) <= 1e-13 * max(1.0, want)


@pytest.mark.parametrize(
    "name, params", BUILTIN_BANKS, ids=[f"{n}{p or ''}" for n, p in BUILTIN_BANKS]
)
def test_completeness_on_one_mode_per_phase_builtin(name, params):
    _assert_completeness_matches_wide_loop(builtin_bank(name, params))


@pytest.mark.parametrize(
    "bank", [b for _, b in RANDOM_BANKS], ids=[label for label, _ in RANDOM_BANKS]
)
def test_completeness_on_one_mode_per_phase_random(bank):
    _assert_completeness_matches_wide_loop(bank)


@pytest.mark.parametrize("shift", [10, -10])
def test_completeness_with_disjoint_windows(shift):
    # each image is e_(n - shift), on a window that misses e_n's exponent
    mono = LaurentPoly.monomial
    bank = FilterBank(2, [mono(0), mono(1)], [mono(shift), mono(shift + 1)])
    rep = relation_report(bank)
    assert rep.completeness_residual == wide_completeness_residual(
        bank.filters, bank.dual_filters, 2, 16
    ) == pytest.approx(math.sqrt(2.0))


def test_pair_residuals_match_per_pair_products(rng):
    for N in (2, 3, 5):
        bank = random_biorthogonal_bank(N, rng)
        for duals, got in ((bank.filters, "self_residuals"), (bank.dual_filters, "pair_residuals")):
            res = getattr(relation_report(bank, grid=64), got)
            for i, mi in enumerate(bank.filters):
                for j, mj in enumerate(duals):
                    q = decimate(adjoint_poly(mi) * mj, N) - LaurentPoly.monomial(0, float(i == j))
                    sup = np.abs(q.eval_grid(64)).max()
                    assert abs(res[i][j] - sup) < 1e-12 * max(1.0, sup)


def test_relation_report_stays_in_coefficients(monkeypatch, rng):
    # the operator formulation must not borrow the loop, modulation or
    # per-polynomial sampling code, or the equivalence suite compares a
    # formulation with itself
    import inspect

    import wavefock.filterbank as fb
    import wavefock.laurent as laurent
    import wavefock.polyphase as pp

    imports = [l for l in inspect.getsource(fb).splitlines() if l.startswith(("import", "from"))]
    assert not any("polyphase" in l for l in imports)

    def forbidden(*args, **kw):
        raise AssertionError("relation_report reached a sampling or loop path")

    banks = [random_biorthogonal_bank(3, rng), random_orthogonal_bank(2, rng)]
    for owner, name in [
        (laurent, "circle_values"),  # the one circle sampler, wherever it is bound
        (fb, "circle_values"),
        (pp, "circle_values"),
        (LaurentPoly, "eval_grid"),
        (pp.LoopMatrix, "sample_grid"),
        (pp, "loop_from_filters"),
        (pp, "modulation_matrix"),
    ]:
        monkeypatch.setattr(owner, name, forbidden)
    assert relation_report(banks[0]).biorthogonal
    assert relation_report(banks[1]).cuntz


def _count_parts(monkeypatch):
    """Count the calls to the part and grid-sup helpers of relation_report."""
    import wavefock.filterbank as fb

    calls = {"part": 0, "sups": 0}

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)

        return wrapper

    monkeypatch.setattr(fb, "_part", counted("part", fb._part))
    monkeypatch.setattr(fb, "_grid_sups", counted("sups", fb._grid_sups))
    return calls


def test_biorthogonal_reads_only_the_pair_part(monkeypatch, rng):
    bank = random_biorthogonal_bank(3, rng)
    calls = _count_parts(monkeypatch)
    rep = relation_report(bank)
    assert calls == {"part": 0, "sups": 0}
    assert rep.biorthogonal and rep.biorthogonal  # read twice, computed once
    assert calls == {"part": 1, "sups": 0}
    assert rep.cuntz is False  # the self part of a non-orthogonal bank
    assert calls == {"part": 2, "sups": 0}
    doc = rep.to_json()
    assert calls == {"part": 2, "sups": 2}
    assert rep.to_json() == doc and calls == {"part": 2, "sups": 2}


@pytest.mark.parametrize("read", ["cuntz", "biorthogonal", "isometry", "orthogonal_ranges"])
def test_self_dual_bank_computes_one_part(monkeypatch, rng, read):
    bank = random_orthogonal_bank(3, rng)
    calls = _count_parts(monkeypatch)
    rep = relation_report(bank)
    assert getattr(rep, read) is True
    assert calls == {"part": 1, "sups": 0}
    doc = rep.to_json()
    assert calls == {"part": 1, "sups": 1}
    assert doc["pair_residuals"] is doc["self_residuals"]


def _oracle_banks():
    rng = np.random.default_rng(11)
    banks = [("haar", builtin_bank("haar", {})), ("stretched-dual", builtin_bank("stretched-haar-dual", {}))]
    for N in (2, 3, 4, 5):
        banks.append((f"biorthogonal-{N}", random_biorthogonal_bank(N, rng)))
        banks.append((f"orthogonal-{N}", random_orthogonal_bank(N, rng)))
        banks.append((f"causal-{N}", random_causal_pair(N, rng)))
        banks.append((f"unstructured-{N}", random_bank(N, rng)))
        dual = random_bank(N, rng)
        banks.append((f"unstructured-pair-{N}", FilterBank(N, random_bank(N, rng).filters, dual.filters)))
    return banks


ORACLE_BANKS = _oracle_banks()


@pytest.mark.parametrize("grid", [1, 8, 64, 256])
@pytest.mark.parametrize("bank", [b for _, b in ORACLE_BANKS], ids=[n for n, _ in ORACLE_BANKS])
def test_to_json_matches_eager_oracle(bank, grid):
    # every value bit for bit, verdicts included
    assert relation_report(bank, tol=1e-9, grid=grid).to_json() == eager_relation_json(bank, 1e-9, grid)


class TestModuleExpand:
    def test_haar_vacuum_components(self, haar):
        comps = module_expand(haar, LaurentPoly.monomial(0), 1)
        assert comps[(0,)].isclose(LaurentPoly({0: 1 / SQRT2}), 1e-14)
        assert comps[(1,)].isclose(LaurentPoly({0: 1 / SQRT2}), 1e-14)
        recon = module_reconstruct(haar, comps)
        assert recon.isclose(LaurentPoly.monomial(0), 1e-14)

    def test_zero_input(self, haar):
        comps = module_expand(haar, LaurentPoly.zero(), 2)
        assert all(p.is_zero for p in comps.values())

    def test_haar_depth3_random(self, haar, rng):
        for _ in range(20):
            f = random_poly(rng, span=8, terms=6)
            comps = module_expand(haar, f, 3, check=False)
            err = module_reconstruct(haar, comps) - f
            assert err.coeff_norm() < 1e-11

    def test_word_basis_product(self, haar):
        b = word_basis(haar, (0, 1))
        expected = haar.filters[0] * LaurentPoly(
            {2 * k: c for k, c in haar.filters[1].coeffs().items()}
        )
        assert b.isclose(expected, 1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_components_match_per_word_chain(self, k, rng):
        for _, bank in RANDOM_BANKS[:8]:
            f = random_poly(rng, span=6, terms=4)
            comps = module_expand(bank, f, k, check=False)
            words = itertools.product(range(bank.N), repeat=k)
            expected = {w: word_chain(bank, f, w) for w in words}
            assert list(comps) == list(expected)
            assert comps == expected

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reconstruct_matches_word_basis(self, k, rng):
        for _, bank in RANDOM_BANKS[:8] + [("stretched", builtin_bank("stretched-haar-dual"))]:
            f = random_poly(rng, span=6, terms=4)
            comps = module_expand(bank, f, k, check=False)
            expected = LaurentPoly.zero()
            for w, f_w in comps.items():
                expected = expected + word_basis(bank, w) * upsample(f_w, bank.N**k)
            assert module_reconstruct(bank, comps).isclose(expected, 1e-12)

    def test_reconstruct_empty(self, haar):
        assert module_reconstruct(haar, {}).is_zero

    def test_not_reconstructive(self, stretched):
        with pytest.raises(NotReconstructiveError):
            module_expand(stretched, LaurentPoly.one(), 1)

    def test_dual_pair_expansion(self, stretched_dual, rng):
        f = random_poly(rng, span=6, terms=5)
        comps = module_expand(stretched_dual, f, 2)
        err = module_reconstruct(stretched_dual, comps) - f
        assert err.coeff_norm() < 1e-11


class TestCrossChecks:
    def test_unstructured_bank_fails_everything(self, rng):
        rep = relation_report(random_bank(2, rng))
        assert not rep.cuntz and not rep.biorthogonal
