from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from ringnls import grid, radial


def ones_like(*coords):
    return np.ones(np.broadcast_shapes(*[c.shape for c in coords]))


def test_make_grid_basic():
    g = grid.make_grid(2, 1.0, 0.5)
    assert g.shape == (5, 5)
    assert g.axis[0] == -1.0 and g.axis[-1] == 1.0
    assert np.allclose(np.diff(g.axis), 0.5)
    # node set symmetric under reflection
    assert np.array_equal(g.axis, -g.axis[::-1])

    with pytest.raises(ValueError):
        grid.make_grid(2, 1.0, 0.3)
    with pytest.raises(ValueError):
        grid.make_grid(4, 1.0, 0.5)
    with pytest.raises(ValueError):
        grid.make_grid(2, 1.0, -0.1)


def test_total_quadrature_weight():
    for dim, L, h in [(2, 1.0, 0.5), (2, 3.0, 0.25), (3, 1.0, 0.25)]:
        g = grid.make_grid(dim, L, h)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant has boundary mass
            total = grid.quad(grid.sample(g, ones_like))
        assert total == pytest.approx((2.0 * L) ** dim, rel=1e-12)


def test_grid_for_radius():
    g = grid.grid_for_radius(7.06, 1.0, 2)
    assert g.h == 0.125
    assert g.L == pytest.approx(0.125 * math.ceil((7.06 + 20.0) / 0.125))
    # small lambda stretches the padding through 15/sqrt(lam)
    g2 = grid.grid_for_radius(1.0, 0.25, 2, h=0.25)
    assert g2.L >= 1.0 + 15.0 / 0.5


def test_sample_radial_symmetry():
    g = grid.make_grid(2, 4.0, 0.5)
    p = radial.ground_state(1.0, 1.0, 2)
    f = grid.sample(g, lambda a, b: radial.eval_profile(p, np.hypot(a, b)))
    assert np.array_equal(f.data, f.data.T)
    assert np.array_equal(f.data, f.data[::-1, :])
    assert f.data[g.n_axis // 2, g.n_axis // 2] == pytest.approx(p.peak, abs=1e-14)


def test_sample_bump_sum_matches_per_node():
    g = grid.make_grid(2, 3.0, 0.5)
    p = radial.ground_state(1.0, 1.0, 2)
    centers = [(1.5, 0.0), (-0.75, 1.299038105676658)]

    def fn(a, b):
        return sum(radial.eval_profile(p, np.hypot(a - cx, b - cy))
                   for cx, cy in centers)

    f = grid.sample(g, fn)
    # direct per-node double loop oracle
    for i in (0, 3, 6, 9, 12):
        for j in (1, 4, 7, 10):
            y1, y2 = g.axis[i], g.axis[j]
            want = sum(radial.eval_profile(p, math.hypot(y1 - cx, y2 - cy))
                       for cx, cy in centers)
            assert f.data[i, j] == pytest.approx(want, rel=1e-14)


def test_laplacian_exact_on_quadratic():
    g = grid.make_grid(2, 2.0, 0.25)
    f = grid.sample(g, lambda a, b: a * a)
    lap = grid.laplacian(f).data
    assert np.max(np.abs(lap[5:-5, 5:-5] - 2.0)) == 0.0


def test_laplacian_discrete_eigenfunction():
    g = grid.make_grid(2, 2.0, 0.25)
    f = grid.sample(g, lambda a, b: np.sin(np.pi * a / g.L)
                    * np.sin(np.pi * b / g.L))
    lam_1d = (2.0 / g.h ** 2) * (math.cos(math.pi * g.h / g.L) - 1.0)
    lap = grid.laplacian(f).data
    err = np.abs(lap[1:-1, 1:-1] - 2.0 * lam_1d * f.data[1:-1, 1:-1])
    assert np.max(err) < 1e-12


def test_laplacian_preserves_symmetry():
    g = grid.make_grid(2, 2.0, 0.25)
    f = grid.sample(g, lambda a, b: np.exp(-(a * a + b * b)))
    lap = grid.laplacian(f).data
    scale = np.max(np.abs(lap))
    assert np.max(np.abs(lap - lap.T)) < 1e-14 * scale
    assert np.max(np.abs(lap - lap[::-1, :])) < 1e-14 * scale


def test_quad_odd_function_vanishes():
    g = grid.make_grid(2, 6.0, 0.25)
    f = grid.sample(g, lambda a, b: a * np.exp(-(a * a + b * b)))
    assert abs(grid.quad(f)) < 1e-13


def test_quad_matches_radial_moment():
    p = radial.ground_state(1.0, 1.0, 2)
    g = grid.grid_for_radius(0.0, 1.0, 2)
    U0 = grid.sample(g, lambda a, b: radial.eval_profile(p, np.hypot(a, b)))
    m2 = grid.quad_product(U0, U0)
    assert abs(m2 - p.moment2) < 1e-4 * p.moment2
    assert abs(m2 - p.moment2) < 1e-6 * p.moment2  # typically ~3e-8


def test_quad_boundary_warning():
    g = grid.make_grid(2, 2.0, 0.5)
    hot = grid.sample(g, ones_like)
    with pytest.warns(RuntimeWarning, match="boundary mass"):
        grid.quad(hot)
    cold = grid.sample(g, lambda a, b: np.exp(-8.0 * (a * a + b * b)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid.quad(cold)


def test_quad_second_order_refinement():
    # integrand with nonvanishing boundary derivatives: trapezoid error ~h^2
    L = 2.0
    exact = 3.0 * (math.exp(L / 3.0) - math.exp(-L / 3.0)) \
        * math.sqrt(math.pi) * math.erf(L)

    def fn(a, b):
        return np.exp(a / 3.0) * np.exp(-b * b)

    errs = []
    for h in (0.25, 0.125):
        g = grid.make_grid(2, L, h)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            errs.append(abs(grid.quad(grid.sample(g, fn)) - exact))
    assert errs[0] / errs[1] >= 3.5


def test_weak_form_identity():
    # multiply -ΔU0 + λU0 = α0 U0³ by U0 and integrate by parts
    p = radial.ground_state(1.0, 1.0, 2)
    g = grid.grid_for_radius(0.0, 1.0, 2)
    U0 = grid.sample(g, lambda a, b: radial.eval_profile(p, np.hypot(a, b)))
    lhs = grid.inner0(U0, U0, 1.0)
    rhs = grid.quad_product(U0, U0, U0, U0)
    assert abs(lhs - rhs) < 1e-4 * abs(rhs)
    assert abs(lhs - rhs) < 1e-5 * abs(rhs)  # measured ~2e-7


def test_inner_products_symmetry_and_coincidence():
    g = grid.make_grid(2, 4.0, 0.25)
    u = grid.sample(g, lambda a, b: np.exp(-(a * a + b * b)))
    v = grid.sample(g, lambda a, b: a * b * np.exp(-(a * a + b * b)))
    assert grid.inner0(u, v, 1.3) == grid.inner0(v, u, 1.3)

    mu = grid.sample(g, lambda a, b: 1.3 * ones_like(a, b))
    i1 = grid.inner1(u, v, mu)
    i0 = grid.inner0(u, v, 1.3)
    assert i1 == pytest.approx(i0, rel=1e-13)


def test_inner0_positive_definite():
    g = grid.make_grid(2, 2.0, 0.25)
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = grid.Field(g, rng.standard_normal(g.shape))
        assert grid.inner0(u, u, 0.7) > 0.0
    assert grid.inner0(grid.zeros(g), grid.zeros(g), 0.7) == 0.0


def test_norm_e():
    g = grid.make_grid(2, 4.0, 0.25)
    u = grid.sample(g, lambda a, b: np.exp(-(a * a + b * b)))
    z = grid.zeros(g)
    mu = grid.sample(g, lambda a, b: 1.0 + 0.5 * np.exp(-a * a - b * b))
    assert grid.norm_E(z, z, 1.0, mu) == 0.0
    assert grid.norm_E(u, z, 1.0, mu) == math.sqrt(grid.inner0(u, u, 1.0))
    assert grid.norm_E(2.0 * u, 2.0 * z, 1.0, mu) \
        == 2.0 * grid.norm_E(u, z, 1.0, mu)


def test_dot_plain_weights():
    g = grid.make_grid(2, 1.0, 0.5)
    one = grid.sample(g, ones_like)
    assert grid.dot(one, one) == pytest.approx(0.25 * 25, rel=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert grid.dot(one, one) > grid.quad(one)  # no boundary halving


def test_field_dump_round_trip():
    g = grid.make_grid(2, 2.0, 0.5)
    rng = np.random.default_rng(17)
    f = grid.Field(g, rng.standard_normal(g.shape))
    f2 = grid.load_field(grid.dump_field(f))
    assert f2.grid == g
    assert np.array_equal(f2.data, f.data)

    text = grid.dump_field(f)
    clipped = "\n".join(text.splitlines()[:-3])
    with pytest.raises(ValueError):
        grid.load_field(clipped)


@pytest.mark.parametrize("dim,L,h", [(2, 2.0, 0.5), (3, 1.0, 0.5)])
def test_field_dump_matches_per_node_repr(dim, L, h):
    """The row-wise text is byte for byte the per-node repr(float(x))
    text, signed zeros, subnormals and tiny values included."""
    g = grid.make_grid(dim, L, h)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(g.shape) * 10.0 ** rng.integers(-300, 300,
                                                            size=g.shape)
    a.ravel()[:6] = [0.0, -0.0, 5e-324, 1e-300, -2.5, -1e-300]
    f = grid.Field(g, a)
    per_node = [f"{g.dim} {g.L!r} {g.h!r}"]
    per_node.extend(repr(float(x)) for x in a.ravel())
    assert grid.dump_field(f) == "\n".join(per_node) + "\n"


def test_pairwise_sum_deterministic():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(1037)
    s1 = grid._pairwise_sum(a.copy())
    s2 = grid._pairwise_sum(a.copy())
    assert s1 == s2
    assert s1 == pytest.approx(float(np.sum(a)), abs=1e-10)
