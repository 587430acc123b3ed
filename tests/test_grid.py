from __future__ import annotations

import io
import math

import numpy as np
import pytest

from ringnls import grid, radial
from symmetry_oracles import fold, unfold
from traced import traced_peak


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
        total = grid.quad_product(grid.sample(g, ones_like))
        assert total == pytest.approx((2.0 * L) ** dim, rel=1e-12)


def test_grid_for_radius():
    # the part of the box folded on mirror_axes(k)
    g = grid.grid_for_radius(7.06, 1.0, 2, 16)
    assert g.h == 0.125
    assert g.L == pytest.approx(0.125 * math.ceil((7.06 + 20.0) / 0.125))
    assert g.mirrored == grid.mirror_axes(16, 2) == (0, 1)
    # small lambda stretches the padding through 15/sqrt(lam)
    g2 = grid.grid_for_radius(1.0, 0.25, 2, 3, h=0.25)
    assert g2.L >= 1.0 + 15.0 / 0.5
    assert g2.mirrored == grid.mirror_axes(3, 2) == (1,)
    assert grid.grid_for_radius(1.0, 1.0, 3, 5).mirrored == (1, 2)


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


def test_laplacian_into_out_same_bits():
    # out= receives the values of the allocating call, bit for bit, on a
    # folded part, and the returned field holds the caller's array
    g = grid.make_grid(2, 4.0, 0.25).with_mirrored((0, 1))
    f = grid.Field(g, np.random.default_rng(4).standard_normal(g.shape))
    out = np.full(g.shape, np.nan)
    got = grid.laplacian(f, out=out)
    assert got.data is out
    assert np.array_equal(out, grid.laplacian(f).data)


def test_quad_odd_function_vanishes():
    g = grid.make_grid(2, 6.0, 0.25)
    f = grid.sample(g, lambda a, b: a * np.exp(-(a * a + b * b)))
    assert abs(grid.quad_product(f)) < 1e-13


def test_quad_matches_radial_moment():
    p = radial.ground_state(1.0, 1.0, 2)
    g = grid.make_grid(2, 20.0, 0.125)   # the padding of a ring at R = 0
    U0 = grid.sample(g, lambda a, b: radial.eval_profile(p, np.hypot(a, b)))
    m2 = grid.quad_product(U0, U0)
    assert abs(m2 - p.moment2) < 1e-4 * p.moment2
    assert abs(m2 - p.moment2) < 1e-6 * p.moment2  # typically ~3e-8


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
        errs.append(abs(grid.quad_product(grid.sample(g, fn)) - exact))
    assert errs[0] / errs[1] >= 3.5


def test_weak_form_identity():
    # multiply -ΔU0 + λU0 = α0 U0³ by U0 and integrate by parts
    p = radial.ground_state(1.0, 1.0, 2)
    g = grid.make_grid(2, 20.0, 0.125)   # the padding of a ring at R = 0
    U0 = grid.sample(g, lambda a, b: radial.eval_profile(p, np.hypot(a, b)))
    lhs = grid.inner(U0, U0, 1.0)
    rhs = grid.quad_product(U0, U0, U0, U0)
    assert abs(lhs - rhs) < 1e-4 * abs(rhs)
    assert abs(lhs - rhs) < 1e-5 * abs(rhs)  # measured ~2e-7


def test_inner_products_symmetry_and_coincidence():
    g = grid.make_grid(2, 4.0, 0.25)
    u = grid.sample(g, lambda a, b: np.exp(-(a * a + b * b)))
    v = grid.sample(g, lambda a, b: a * b * np.exp(-(a * a + b * b)))
    assert grid.inner(u, v, 1.3) == grid.inner(v, u, 1.3)

    mu = grid.sample(g, lambda a, b: 1.3 * ones_like(a, b))
    i1 = grid.inner(u, v, mu)
    i0 = grid.inner(u, v, 1.3)
    assert i1 == pytest.approx(i0, rel=1e-13)


def test_inner0_positive_definite():
    g = grid.make_grid(2, 2.0, 0.25)
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = grid.Field(g, rng.standard_normal(g.shape))
        assert grid.inner(u, u, 0.7) > 0.0
    assert grid.inner(grid.zeros(g), grid.zeros(g), 0.7) == 0.0


def test_norm_e():
    g = grid.make_grid(2, 4.0, 0.25)
    u = grid.sample(g, lambda a, b: np.exp(-(a * a + b * b)))
    z = grid.zeros(g)
    mu = grid.sample(g, lambda a, b: 1.0 + 0.5 * np.exp(-a * a - b * b))
    assert grid.norm_E(z, z, 1.0, mu) == 0.0
    assert grid.norm_E(u, z, 1.0, mu) == math.sqrt(grid.inner(u, u, 1.0))
    assert grid.norm_E(2.0 * u, 2.0 * z, 1.0, mu) \
        == 2.0 * grid.norm_E(u, z, 1.0, mu)


def _dump(f):
    """dump_field's text, written into memory."""
    buf = io.StringIO()
    grid.dump_field(f, buf)
    return buf.getvalue()


def test_field_dump_round_trip():
    g = grid.make_grid(2, 2.0, 0.5)
    rng = np.random.default_rng(17)
    f = grid.Field(g, rng.standard_normal(g.shape))
    f2 = grid.load_field(_dump(f))
    assert f2.grid == g
    assert np.array_equal(f2.data, f.data)

    text = _dump(f)
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
    assert _dump(f) == "\n".join(per_node) + "\n"


def _mirror_even(a):
    """Symmetrize a over every axis, so rows repeat (mirror rows) and
    values repeat within each row."""
    for ax in range(a.ndim):
        a = a + np.flip(a, axis=ax)
    return a


@pytest.mark.parametrize("dim,L,h", [(2, 2.0, 0.25), (3, 1.0, 0.25)])
def test_field_dump_repeated_values_match_per_node_repr(dim, L, h):
    """Repeated rows and repeated in-row values print as the per-node
    repr(float(x)) text, also where they are equal as floats but not as
    bits (0.0 against -0.0), and for nan and inf."""
    g = grid.make_grid(dim, L, h)
    n = g.n_axis
    a = _mirror_even(np.random.default_rng(8).standard_normal(g.shape))
    # a row of +0.0 and its mirror row of -0.0
    a[1], a[n - 2] = 0.0, -0.0
    # in one row, +0.0 at one end and -0.0 at the mirrored node
    a[2, ..., 0], a[2, ..., n - 1] = 0.0, -0.0
    # nan (both signs) and inf at mirrored nodes of mirrored rows
    for i in (3, n - 4):
        a[i, ..., 2] = a[i, ..., n - 3] = np.nan
        a[i, ..., 4] = a[i, ..., n - 5] = -np.inf
    a[4, ..., 1] = np.copysign(np.nan, -1.0)
    a[4, ..., n - 2] = np.inf
    f = grid.Field(g, a)
    per_node = [f"{g.dim} {g.L!r} {g.h!r}"]
    per_node.extend(repr(float(x)) for x in a.ravel())
    assert _dump(f) == "\n".join(per_node) + "\n"


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("layout", ["odd_k", "even_k", "y1_alone"])
def test_field_dump_folded_writes_full_box(tmp_path, dim, layout):
    """A folded field is written as the text of its even extension: the
    bytes in the file are those of dump_field(unfold(f)), with the
    signed zeros, nan and inf of the repeated-values case in the stored
    part, for the odd-k fold (y1 whole), the even-k fold (y1 mirrored
    too) and a fold on y1 alone (the last axis whole).  Their mirror
    copies are equal bit for bit, so the full box repeats them through
    the centre."""
    g = grid.make_grid(dim, 2.0 if dim == 2 else 1.5, 0.25)
    mirror_axes = grid.mirror_axes
    axes = {"odd_k": mirror_axes(1, dim), "even_k": mirror_axes(2, dim),
            "y1_alone": (0,)}[layout]
    f = fold(grid.Field(g, np.random.default_rng(9).standard_normal(
        g.shape)), axes)
    assert f.grid.mirrored == axes
    p = f.data
    # stored rows of +0.0 and of -0.0, and both in one stored row
    p[1], p[2] = 0.0, -0.0
    p[3, ..., 0], p[3, ..., -1] = 0.0, -0.0
    # nan of both signs and inf of both signs, in a row stored twice
    p[4, ..., 1:5] = [np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf]
    p[5] = p[4]
    path = tmp_path / "f.field"
    with open(path, "w") as fh:
        grid.dump_field(f, fh)
    full = unfold(f)
    assert path.read_bytes() == _dump(full).encode()
    per_node = [f"{g.dim} {g.L!r} {g.h!r}"]
    per_node.extend(repr(float(x)) for x in full.data.ravel())
    assert _dump(full) == "\n".join(per_node) + "\n"
    assert np.array_equal(grid.load_field(path.read_text()).data,
                          full.data, equal_nan=True)


def test_field_dump_peak_memory(tmp_path):
    """Writing a 513^2 mirror-even field, folded on both axes, to a file
    allocates at most the file's size at its peak: the row cache holds
    one text per distinct stored row (0.62 of the file here), and neither
    the full box nor the whole text is built; the whole-text form peaked
    at 1.72 times its text."""
    g = grid.make_grid(2, 32.0, 0.125)
    assert g.n_axis == 513
    f = fold(grid.Field(g, _mirror_even(
        np.random.default_rng(13).standard_normal(g.shape))), (0, 1))
    path = tmp_path / "f.field"
    with open(path, "w") as fh:
        _, peak = traced_peak(grid.dump_field, f, fh)
    assert peak <= path.stat().st_size


def _pairwise_sum_by_concatenate(a):
    """The reduction tree as first written, a new array per level."""
    a = a.ravel()
    while a.size > 1:
        if a.size % 2:
            a = np.concatenate([a[0:-1:2] + a[1::2], a[-1:]])
        else:
            a = a[0::2] + a[1::2]
    return float(a[0])


def test_pairwise_sum_keeps_the_concatenate_tree():
    # the levels summed into one buffer follow the same tree bit for bit,
    # odd sizes included, and leave the input as it was
    rng = np.random.default_rng(21)
    for n in range(1, 71):
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        before = a.copy()
        got = grid._pairwise_sum(a)
        assert np.array_equal(a, before)
        assert got == _pairwise_sum_by_concatenate(a)


def test_quad_product_into_out_matches_new_array():
    g = grid.make_grid(2, 3.0, 0.25).with_mirrored((1,))
    rng = np.random.default_rng(4)
    f, h = (grid.Field(g, rng.standard_normal(g.shape)) for _ in range(2))
    for fields in ((f,), (f, h), (f, h, f)):
        want = grid.quad_product(*fields)
        out = np.empty(g.shape)
        assert grid.quad_product(*fields, out=out) == want
    # the first field's own data may take the weighted product
    scratch = f.data.copy()
    assert grid.quad_product(grid.Field(g, scratch), h, out=scratch) \
        == grid.quad_product(f, h)


def test_pairwise_sum_deterministic():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(1037)
    s1 = grid._pairwise_sum(a.copy())
    s2 = grid._pairwise_sum(a.copy())
    assert s1 == s2
    assert s1 == pytest.approx(float(np.sum(a)), abs=1e-10)


# ---------------------------------------------------------------------------
# folded layout: a field even in some axes, stored from the centre on


# fold sets mirror_axes(k): k = 1, 3 leave y1 whole, k = 2, 4 mirror it,
# and k = 4 adds the transpose to the orbit average
FOLD_CASES = [(dim, k) for dim in (2, 3) for k in (1, 2, 3, 4)]


def _fold_test_grid(dim):
    return grid.make_grid(2, 4.0, 0.25) if dim == 2 \
        else grid.make_grid(3, 2.5, 0.25)


def _even_field(g, axes, seed):
    """A random field under a Gaussian, averaged over the axis mirrors of
    axes (exactly even: a + flip(a) is the same float at both nodes)."""
    r2 = sum(m * m for m in g.mesh())
    a = np.random.default_rng(seed).standard_normal(g.shape) \
        * np.exp(-0.3 * r2)
    for ax in axes:
        a = 0.5 * (a + np.flip(a, ax))
    return grid.Field(g, a)


def _close(folded, full):
    assert abs(folded - full) <= 1e-13 * abs(full)


@pytest.mark.parametrize("dim,k", FOLD_CASES)
def test_folded_operations_match_full_grid(dim, k):
    g = _fold_test_grid(dim)
    axes = grid.mirror_axes(k, dim)
    u, v, mu = (_even_field(g, axes, seed) for seed in (1, 2, 3))
    fu, fv, fmu = (fold(f, axes) for f in (u, v, mu))
    assert fu.grid.mirrored == axes and fu.data.shape == fu.grid.shape
    assert np.array_equal(unfold(fu).data, u.data)
    assert unfold(fu).grid == g
    # the stencils read mirror ghosts: the folded values are the
    # full-grid ones at the kept nodes, bit for bit
    assert np.array_equal(grid.laplacian(fu).data,
                          fold(grid.laplacian(u), axes).data)
    for ax in range(dim):
        assert np.array_equal(grid.grad8(fu, ax).data,
                              fold(grid.grad8(u, ax), axes).data)
    # the mirror weights turn folded quadratures into full-grid ones
    assert grid.quad_product(fold(grid.sample(g, ones_like), axes)) \
        == pytest.approx((2.0 * g.L) ** dim, rel=1e-13)
    _close(grid.quad_product(fu, fv), grid.quad_product(u, v))
    _close(grid.quad_product(fu, fv, fmu), grid.quad_product(u, v, mu))
    _close(grid.inner(fu, fv, fmu), grid.inner(u, v, mu))
    _close(grid.norm_E(fu, fv, 1.0, fmu), grid.norm_E(u, v, 1.0, mu))
    _close(grid.norm_E(fv, fu, 0.5, fmu), grid.norm_E(v, u, 0.5, mu))


@pytest.mark.parametrize("dim,k", FOLD_CASES)
def test_folded_orbit_average_matches_full_grid(dim, k):
    # the H-average of a folded field (identity, or the y1/y2 transpose
    # for k = 0 mod 4; the spline cosets on top at k = 3) is the folded
    # full-grid average, element by element
    from ringnls.geometry import symmetrize
    from symmetry_oracles import symmetrize_per_element

    g = _fold_test_grid(dim)
    axes = grid.mirror_axes(k, dim)
    f = _even_field(g, axes, 4)
    folded = symmetrize(fold(f, axes), k)
    full = fold(grid.Field(g, symmetrize_per_element(f, k)), axes)
    assert folded.grid == full.grid
    assert np.max(np.abs(folded.data - full.data)) \
        <= 1e-13 * np.max(np.abs(full.data))
