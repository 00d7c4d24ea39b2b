import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redunquant as rq
from redunquant.errors import DimensionError, DomainError, GridMismatchError, NumericalError
from redunquant.info_measures import _clamp_kl, _grid_kl_and_left_out

from .oracles import entropy_quad_bits, kl_quad_bits, normal_pdf

# frozen from the quadrature oracles in oracles.py (bounds chosen to keep
# the reference density above underflow):
#   entropy_quad_bits(normal_pdf(0, 1), -12, 12)          -> 2.0470955851806414
#   kl_quad_bits(normal_pdf(0,3), normal_pdf(0,1), -26,26) -> 0.6502137905283853
#   kl_quad_bits(normal_pdf(1,1), normal_pdf(0,1), -12,13) -> 0.7213475204444817
STD_NORMAL_ENTROPY_BITS = 2.0470955851806414
KL_VAR3_VS_VAR1_BITS = 0.6502137905283853
KL_SHIFT1_BITS = 0.7213475204444817


def _discretized(g: rq.GaussianDensity, box: rq.Box) -> rq.GridDensity:
    values = g.pdf(box.center_points()).reshape(tuple(box.n))
    return rq.GridDensity.from_unnormalized(box, values)


class TestGaussianEntropy:
    def test_standard_normal_matches_quadrature(self):
        value = rq.gaussian_entropy(rq.GaussianDensity([0.0], [[1.0]]))
        assert value == pytest.approx(STD_NORMAL_ENTROPY_BITS, abs=1e-12)
        assert value == pytest.approx(
            entropy_quad_bits(normal_pdf(0.0, 1.0), -12, 12), abs=1e-9
        )

    def test_translation_invariance(self):
        cov = [[0.3]]
        base = rq.gaussian_entropy(rq.GaussianDensity([0.0], cov))
        for mu in (-4.0, 0.7, 12.0):
            assert rq.gaussian_entropy(rq.GaussianDensity([mu], cov)) == base

    def test_product_measure_additivity(self):
        value = rq.gaussian_entropy(rq.GaussianDensity([0.0, 0.0], np.eye(2)))
        assert value == pytest.approx(2.0 * STD_NORMAL_ENTROPY_BITS, abs=1e-12)

    @given(c=st.floats(0.01, 100.0), d=st.integers(1, 4))
    def test_scale_law(self, c, d):
        P = np.eye(d) + 0.1
        base = rq.gaussian_entropy(rq.GaussianDensity(np.zeros(d), P))
        scaled = rq.gaussian_entropy(rq.GaussianDensity(np.zeros(d), c * P))
        assert scaled == pytest.approx(base + 0.5 * d * math.log2(c), abs=1e-9)


class TestGaussianKl:
    def test_zero_iff_equal(self):
        g = rq.GaussianDensity([0.5, -1.0], [[2.0, 0.4], [0.4, 1.0]])
        assert rq.gaussian_kl(g, g) == pytest.approx(0.0, abs=1e-12)

    def test_variance_ratio_three(self):
        q = rq.GaussianDensity([0.0], [[3.0]])
        p = rq.GaussianDensity([0.0], [[1.0]])
        assert rq.gaussian_kl(q, p) == pytest.approx(KL_VAR3_VS_VAR1_BITS, abs=1e-12)

    def test_unit_mean_shift(self):
        q = rq.GaussianDensity([1.0], [[1.0]])
        p = rq.GaussianDensity([0.0], [[1.0]])
        assert rq.gaussian_kl(q, p) == pytest.approx(KL_SHIFT1_BITS, abs=1e-12)
        assert rq.gaussian_kl(q, p) == pytest.approx(0.5 / math.log(2.0), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            rq.gaussian_kl(
                rq.GaussianDensity([0.0], [[1.0]]),
                rq.GaussianDensity([0.0, 0.0], np.eye(2)),
            )

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60)
    def test_nonnegative_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))

        def random_gaussian():
            W = rng.uniform(-1.0, 1.0, (d, d))
            return rq.GaussianDensity(rng.uniform(-2, 2, d), W @ W.T + 0.2 * np.eye(d))

        q, p = random_gaussian(), random_gaussian()
        assert rq.gaussian_kl(q, p) >= 0.0

    @given(c=st.floats(0.01, 100.0))
    def test_common_scaling_invariance(self, c):
        q = rq.GaussianDensity([0.0, 0.0], [[2.0, 0.1], [0.1, 0.5]])
        p = rq.GaussianDensity([0.0, 0.0], [[1.0, -0.2], [-0.2, 3.0]])
        base = rq.gaussian_kl(q, p)
        scaled = rq.gaussian_kl(
            rq.GaussianDensity(q.mean, c * q.cov), rq.GaussianDensity(p.mean, c * p.cov)
        )
        assert scaled == pytest.approx(base, abs=1e-10)


class TestGridEstimators:
    def test_uniform_entropy_values(self):
        box1 = rq.Box([0.0], [1.0], [37])
        unif1 = rq.GridDensity(box1, np.full(37, 1.0))
        assert rq.grid_entropy(unif1) == pytest.approx(0.0, abs=1e-12)
        box2 = rq.Box([0.0], [2.0], [64])
        unif2 = rq.GridDensity(box2, np.full(64, 0.5))
        assert rq.grid_entropy(unif2) == pytest.approx(1.0, abs=1e-12)

    def test_discretized_standard_normal(self):
        box = rq.Box([-8.0], [8.0], [1601])
        disc = _discretized(rq.GaussianDensity([0.0], [[1.0]]), box)
        assert rq.grid_entropy(disc) == pytest.approx(STD_NORMAL_ENTROPY_BITS, abs=1e-3)

    def test_grid_kl_trivial_and_uniform(self):
        box = rq.Box([0.0], [2.0], [50])
        p = rq.GridDensity(box, np.full(50, 0.5))
        assert rq.grid_kl(p, p) == pytest.approx(0.0, abs=1e-15)
        q_values = np.concatenate([np.full(25, 1.0), np.zeros(25)])
        q = rq.GridDensity(box, q_values)
        assert rq.grid_kl(q, p) == pytest.approx(1.0, abs=1e-12)

    def test_grid_kl_matches_gaussian_closed_form(self):
        box = rq.Box([-12.0], [12.0], [2401])
        q = _discretized(rq.GaussianDensity([0.0], [[3.0]]), box)
        p = _discretized(rq.GaussianDensity([0.0], [[1.0]]), box)
        assert rq.grid_kl(q, p) == pytest.approx(KL_VAR3_VS_VAR1_BITS, abs=2e-3)

    def test_grid_mismatch_raises(self):
        a = rq.GridDensity(rq.Box([0.0], [1.0], [10]), np.full(10, 1.0))
        b = rq.GridDensity(rq.Box([0.0], [2.0], [10]), np.full(10, 0.5))
        with pytest.raises(GridMismatchError):
            rq.grid_kl(a, b)

    def test_absolute_continuity_failure_gives_sentinel(self):
        box = rq.Box([0.0], [1.0], [4])
        q = rq.GridDensity(box, np.array([2.0, 2.0, 0.0, 0.0]))
        p = rq.GridDensity(box, np.array([0.0, 0.0, 2.0, 2.0]))
        assert rq.grid_kl(q, p) == math.inf

    def test_cells_where_reference_underflows_are_left_out_up_to_a_thousandth(self):
        box = rq.Box([0.0], [5.0], [5])
        p = rq.GridDensity(box, [0.25, 0.25, 0.25, 0.25, 0.0])
        q = rq.GridDensity(box, [0.25, 0.25, 0.125, 0.375 - 5e-4, 5e-4])
        kept = q.values[:4]
        assert rq.grid_kl(q, p) == pytest.approx(np.sum(kept * np.log2(kept / 0.25)), rel=1e-12)
        q = rq.GridDensity(box, [0.25, 0.25, 0.125, 0.375 - 2e-3, 2e-3])
        assert rq.grid_kl(q, p) == math.inf

    def test_deficit_from_mass_left_out_is_clamped(self):
        # leaving out q-mass d pulls the sum over the kept cells down to
        # (1 - d) log2(1 - d) >= -d / ln 2 (log-sum inequality)
        box = rq.Box([0.0], [5.0], [5])
        p = rq.GridDensity(box, [0.25, 0.25, 0.25, 0.25, 0.0])
        q = rq.GridDensity(box, [0.25 * (1.0 - 1e-4)] * 4 + [1e-4])
        kl, left_out = _grid_kl_and_left_out(q, p)
        assert kl == 0.0
        assert left_out == pytest.approx(1e-4)

    @pytest.mark.parametrize("left_out", [0.0, 1e-4])
    def test_negative_kl_raises_beyond_the_deficit_of_mass_left_out(self, left_out):
        bound = 1e-8 + left_out / math.log(2.0)
        assert _clamp_kl(-bound * (1.0 - 1e-6), left_out) == 0.0
        with pytest.raises(NumericalError, match="< 0"):
            _clamp_kl(-bound * (1.0 + 1e-6), left_out)

    def test_2d_estimators_match_closed_forms(self):
        box = rq.Box([-8.0, -8.0], [8.0, 8.0], [401, 401])
        g_q = rq.GaussianDensity([0.0, 0.0], [[1.5, 0.2], [0.2, 0.8]])
        g_p = rq.GaussianDensity([0.0, 0.0], np.eye(2))
        q, p = _discretized(g_q, box), _discretized(g_p, box)
        assert rq.grid_entropy(p) == pytest.approx(
            rq.gaussian_entropy(g_p), abs=1e-3
        )
        assert rq.grid_kl(q, p) == pytest.approx(rq.gaussian_kl(g_q, g_p), abs=1e-3)

    def test_estimator_converges_with_resolution(self):
        # on an 8-sigma box the midpoint sum is spectrally accurate, so the
        # linear-halving bound is checked against a machine-precision floor
        g = rq.GaussianDensity([0.0], [[1.0]])
        errors = []
        for n in (100, 200, 400):
            box = rq.Box([-8.0], [8.0], [n])
            errors.append(abs(rq.grid_entropy(_discretized(g, box)) - STD_NORMAL_ENTROPY_BITS))
        assert errors[1] <= 0.55 * errors[0] + 1e-12
        assert errors[2] <= 0.55 * errors[1] + 1e-12

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40)
    def test_gibbs_inequality_on_random_grid_densities(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        box = rq.Box([0.0], [1.0], [n])
        q = rq.GridDensity.from_unnormalized(box, rng.uniform(0.05, 1.0, n))
        p = rq.GridDensity.from_unnormalized(box, rng.uniform(0.05, 1.0, n))
        cross = -np.sum(q.values * np.log2(p.values)) * box.cell_volume
        assert rq.grid_entropy(q) <= cross + 1e-12
        assert rq.grid_kl(q, p) >= 0.0


class TestGridDensityType:
    def test_pdf_is_zero_far_outside_without_warning(self):
        box = rq.Box([-1.0], [1.0], [4])
        density = rq.GridDensity(box, np.full(4, 0.5))
        # a cell index past the int range warns, and pyproject turns warnings into errors
        far = np.array([[1e300], [np.inf], [-np.inf], [np.nan]])
        np.testing.assert_array_equal(density.pdf(far), np.zeros(4))


class TestGaussianDensityType:
    def test_rejects_asymmetric_cov(self):
        with pytest.raises(DomainError):
            rq.GaussianDensity([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite_cov(self):
        with pytest.raises(DomainError):
            rq.GaussianDensity([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_pdf_normalizes(self):
        g = rq.GaussianDensity([0.3], [[0.7]])
        xs = np.linspace(-10, 10, 4001)[:, None]
        mass = np.trapezoid(g.pdf(xs), dx=20 / 4000)
        assert mass == pytest.approx(1.0, abs=1e-9)


_LINE = rq.Box([-1.0], [1.0], [4])


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(
            lambda: rq.Box([0.0, 0.0], [1.0], [4]),
            DimensionError, "lo, hi and n must have equal lengths", id="box_lengths",
        ),
        pytest.param(
            lambda: rq.Box([1.0], [1.0], [4]),
            DomainError, "hi > lo on every axis", id="box_empty",
        ),
        pytest.param(
            lambda: rq.Box([0.0], [1.0], [0]),
            DomainError, "at least one cell", id="box_no_cell",
        ),
        pytest.param(
            lambda: rq.GaussianDensity([0.0], [1.0]),
            DimensionError, "cov must be square", id="gaussian_cov_shape",
        ),
        pytest.param(
            lambda: rq.GaussianDensity([0.0], np.eye(2)),
            DimensionError, "mean and cov dimensions disagree", id="gaussian_dims",
        ),
        pytest.param(
            lambda: rq.GaussianDensity([0.0], [[np.inf]]),
            DomainError, "cov contains non-finite entries", id="gaussian_cov_inf",
        ),
        pytest.param(
            lambda: rq.GridDensity(_LINE, np.full(5, 0.4)),
            DimensionError, "values shape (5,) does not match grid (4,)", id="grid_shape",
        ),
        pytest.param(
            lambda: rq.GridDensity(_LINE, [1.0, -0.5, 0.5, 1.0]),
            DomainError, "grid values must be nonnegative", id="grid_negative",
        ),
        pytest.param(
            lambda: rq.GridDensity(_LINE, np.full(4, 1.0)),
            DomainError, "grid density mass is 2.0, not 1", id="grid_mass",
        ),
        pytest.param(
            lambda: rq.GridDensity.from_unnormalized(_LINE, np.zeros(4)),
            DomainError, "total mass is not positive", id="grid_unnormalizable",
        ),
    ],
)
def test_typed_errors(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
