from __future__ import annotations

import math

import numpy as np
import pytest

from ringnls import model


def test_params_defaults_and_validation():
    p = model.ModelParams()
    assert p.lam == 1.0 and p.alpha0 == 1.0 and p.alpha1 == 1.0
    assert p.beta == 0.0 and p.dim == 2

    with pytest.raises(ValueError):
        model.ModelParams(lam=0.0)
    with pytest.raises(ValueError):
        model.ModelParams(alpha1=-1.0)
    with pytest.raises(ValueError):
        model.ModelParams(dim=4)
    with pytest.raises(ValueError, match="assumption"):
        model.ModelParams(m=0.5)
    with pytest.raises(ValueError):
        model.ModelParams(theta=0.0)
    # beta of either sign is legal; only its size is constrained elsewhere
    model.ModelParams(beta=-0.3)


def test_derive_exponents_frozen():
    ex = model.derive_exponents(1.0, 2.0)
    assert ex.tau0 == pytest.approx(0.75, abs=1e-15)
    assert ex.delta0 == pytest.approx(0.0625, abs=1e-15)
    assert ex.p == pytest.approx(0.1875, abs=1e-15)

    # theta small enough to become the binding term in 4*delta0
    ex2 = model.derive_exponents(2.0, 0.1)
    assert ex2.tau0 == pytest.approx(0.625, abs=1e-15)
    assert ex2.delta0 == pytest.approx(0.025, abs=1e-15)
    assert ex2.p == pytest.approx(0.725, abs=1e-15)


def test_derive_exponents_ranges():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        m = float(rng.uniform(0.5001, 5.0))
        theta = float(rng.uniform(1e-3, 5.0))
        ex = model.derive_exponents(m, theta)
        assert 0.5 < ex.tau0 < 1.0
        assert ex.delta0 > 0.0
        assert ex.p > 0.0


def test_bump_radius_interval_frozen():
    lo, hi = model.bump_radius_interval(8, 1.0, 0.0625)
    base = 8 * math.log(8) / (2.0 * math.pi)
    assert lo == pytest.approx(0.9375 * base, rel=1e-14)
    assert hi == pytest.approx(1.0625 * base, rel=1e-14)
    assert lo == pytest.approx(2.4822, abs=2e-3)
    assert hi == pytest.approx(2.8132, abs=2e-3)

    lo16, hi16 = model.bump_radius_interval(16, 1.0, 0.0625)
    assert lo16 == pytest.approx(6.619068004579548, rel=1e-13)
    assert hi16 == pytest.approx(7.501610405190155, rel=1e-13)

    with pytest.raises(ValueError):
        model.bump_radius_interval(1, 1.0, 0.0625)


def test_bump_radius_interval_monotone_in_k():
    prev = model.bump_radius_interval(3, 1.0, 0.0625)
    for k in range(4, 41):
        cur = model.bump_radius_interval(k, 1.0, 0.0625)
        assert cur[0] > prev[0]
        assert cur[1] > prev[1]
        assert cur[0] < cur[1]
        prev = cur


def test_validate_potential_default_passes():
    params = model.ModelParams(a=1.0, m=1.0, theta=2.0)
    pot = model.make_potential(params)
    radii = model.default_sample_radii(16, 1.0, 0.0625)
    rep = model.validate_potential(pot, 1.0, 1.0, 2.0, radii)
    assert rep.passed
    assert rep.clause == "all"
    assert rep.measured_bound < 2.0
    assert set(rep.as_dict()) == {"clause", "passed", "witness_radius",
                                  "measured_bound"}


def test_validate_potential_requires_positive_a():
    radii = model.default_sample_radii(16, 1.0, 0.0625)
    rep = model.validate_potential(lambda r: np.ones_like(r), 0.0, 1.0, 2.0,
                                   radii)
    assert not rep.passed
    assert rep.clause == "asymptotic"
    assert "a > 0" in rep.message

    # stays positive on the sampled radii but matches with a = -2 < 0
    rep2 = model.validate_potential(lambda r: 1.0 - 2.0 / (1.0 + r), -2.0,
                                    1.0, 1.0, radii)
    assert not rep2.passed
    assert rep2.clause == "asymptotic"


def test_validate_potential_flags_overclaimed_theta():
    # true tail defect decays like r^-3; declaring theta=5 makes the
    # scaled defect grow across the top decade
    params = model.ModelParams(a=1.0, m=1.0, theta=2.0)
    pot = model.make_potential(params)
    radii = model.default_sample_radii(16, 1.0, 0.0625)
    rep = model.validate_potential(pot, 1.0, 1.0, 5.0, radii)
    assert not rep.passed
    assert rep.clause == "asymptotic"


def test_validate_potential_flags_negative_dip():
    def mu(r):
        r = np.asarray(r, dtype=float)
        return 1.0 + 1.0 / r - 3.0 * np.exp(-((r - 2.0) ** 2))

    radii = np.geomspace(1.0, 500.0, 400)
    rep = model.validate_potential(mu, 1.0, 1.0, 2.0, radii)
    assert not rep.passed
    assert rep.clause == "positivity"
    assert rep.witness_radius == pytest.approx(2.0, abs=0.5)


def test_compute_gamma0_f0_arithmetic():
    u0 = np.array([0.0, 1.0, 2.0])
    bumps = np.array([0.5, 0.25, 0.0])
    out = model.compute_gamma0_f0(u0, bumps, decay_const=1.0, safety=0.5)
    assert out.gamma0 == pytest.approx(4.0)
    assert out.f0 == pytest.approx(0.125)
    assert out.gamma0_crude == pytest.approx(49.0)  # max(2, 7*1)^2
    assert out.f0 * out.gamma0 < 1.0

    zero = model.compute_gamma0_f0(np.zeros(3), bumps, decay_const=0.1,
                                   safety=0.9)
    assert zero.gamma0 == pytest.approx(0.25)


def test_compute_gamma0_f0_townes_scale():
    from ringnls import radial

    prof = radial.ground_state(1.0, 1.0, 2)
    u0 = prof.values
    bumps = 1e-3 * prof.values
    out = model.compute_gamma0_f0(u0, bumps, prof.decay_const, safety=0.9)
    assert out.gamma0 == pytest.approx(prof.peak ** 2, rel=1e-12)
    assert out.gamma0 == pytest.approx(4.867, abs=2e-3)
    assert out.f0 == pytest.approx(0.9 / 4.867, rel=1e-3)
    assert out.f0 * out.gamma0 < 1.0


def test_mid_radius():
    # symmetric window about (m/(2 pi)) k ln k when delta0 drops out
    mid = model.mid_radius(16, 1.0, 2.0)
    lo, hi = model.bump_radius_interval(16, 1.0,
                                        model.derive_exponents(1.0, 2.0).delta0)
    assert lo < mid < hi
    assert mid == pytest.approx(16.0 * math.log(16.0) / (2.0 * math.pi),
                                rel=1e-12)
