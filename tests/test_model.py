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
    # beta of either sign is legal; only its size is constrained elsewhere
    model.ModelParams(beta=-0.3)


# S_k at k in {2, 3, 8, 16, 32} and m in {1, 2, 3}: (lo, hi, mid_radius)
_WINDOWS = {
    (2, 1.0): (0.20684587514311087, 0.23442532516219233, 0.2206356001526516),
    (2, 2.0): (0.43437633780053286, 0.44816606281007354, 0.4412712003053032),
    (2, 3.0): (0.6573102254547746, 0.666503375461135, 0.6619068004579548),
    (3, 1.0): (0.49176443329602154, 0.5573330244021577, 0.5245487288490897),
    (3, 2.0): (1.0327053099216452, 1.0654896054747134, 1.0490974576981793),
    (3, 3.0): (1.5627180880295795, 1.5845742850649585, 1.5736461865472688),
    (8, 1.0): (2.4821505017173306, 2.8131039019463078, 2.647627201831819),
    (8, 2.0): (5.212516053606394, 5.377992753720883, 5.295254403663638),
    (8, 3.0): (7.8877227054572945, 7.998040505533621, 7.942881605495458),
    (16, 1.0): (6.619068004579548, 7.501610405190155, 7.060339204884851),
    (16, 2.0): (13.900042809617052, 14.341314009922353, 14.120678409769702),
    (16, 3.0): (21.033927214552786, 21.32810801475632, 21.181017614654554),
    (32, 1.0): (16.547670011448872, 18.754026012975388, 17.65084801221213),
    (32, 2.0): (34.75010702404263, 35.85328502480589, 35.30169602442426),
    (32, 3.0): (52.58481803638197, 53.32027003689081, 52.95254403663639),
}


def test_bump_radius_interval_frozen():
    # half-width delta0 = 0.0625 at m = 1 and 0.03125 at m = 2
    base = 8 * math.log(8) / (2.0 * math.pi)
    lo, hi = model.bump_radius_interval(8, 1.0)
    assert lo == pytest.approx((1.0 - 0.0625) * base, rel=1e-14)
    assert hi == pytest.approx((1.0 + 0.0625) * base, rel=1e-14)
    assert lo == pytest.approx(2.4822, abs=2e-3)
    assert hi == pytest.approx(2.8132, abs=2e-3)
    lo2, hi2 = model.bump_radius_interval(8, 2.0)
    assert lo2 == pytest.approx((2.0 - 0.03125) * base, rel=1e-14)
    assert hi2 == pytest.approx((2.0 + 0.03125) * base, rel=1e-14)

    for (k, m), (lo, hi, mid) in _WINDOWS.items():
        assert model.bump_radius_interval(k, m) == (lo, hi)
        assert model.mid_radius(k, m) == mid

    with pytest.raises(ValueError):
        model.bump_radius_interval(1, 1.0)


def test_bump_radius_interval_monotone_in_k():
    prev = model.bump_radius_interval(3, 1.0)
    for k in range(4, 41):
        cur = model.bump_radius_interval(k, 1.0)
        assert cur[0] > prev[0]
        assert cur[1] > prev[1]
        assert cur[0] < cur[1]
        prev = cur


def test_compute_gamma0_f0_arithmetic():
    u0 = np.array([0.0, 1.0, 2.0])
    bumps = np.array([0.5, 0.25, 0.0])
    f0 = model.coupling_bound(u0, bumps)
    assert f0 == 0.9 / 4.0
    assert f0 * 4.0 < 1.0

    assert model.coupling_bound(np.zeros(3), bumps) == 0.9 / 0.25
    with pytest.raises(ValueError, match="vanished"):
        model.coupling_bound(np.zeros(3), np.zeros(3))


def test_compute_gamma0_f0_townes_scale():
    from ringnls import radial

    prof = radial.ground_state(1.0, 1.0, 2)
    u0 = prof.values
    bumps = 1e-3 * prof.values
    f0 = model.coupling_bound(u0, bumps)
    assert f0 == 0.9 / prof.peak ** 2
    assert prof.peak ** 2 == pytest.approx(4.867, abs=2e-3)
    assert f0 == pytest.approx(0.9 / 4.867, rel=1e-3)
    assert f0 * prof.peak ** 2 < 1.0


def test_mid_radius():
    # symmetric window about (m/(2 pi)) k ln k when delta0 drops out
    mid = model.mid_radius(16, 1.0)
    lo, hi = model.bump_radius_interval(16, 1.0)
    assert lo < mid < hi
    assert mid == pytest.approx(16.0 * math.log(16.0) / (2.0 * math.pi),
                                rel=1e-12)
