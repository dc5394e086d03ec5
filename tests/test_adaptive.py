from dataclasses import replace

import numpy as np
import pytest

from hprlp import EngineConfig, Iterate, RestartConfig, SparseMatrix
from hprlp.adaptive import (
    SIGMA_MAX,
    SIGMA_MIN,
    RestartReason,
    check_restart,
    m_norm,
    m_norm_squared,
    sigma_update,
)

from theory import plus


A_1X1 = SparseMatrix.from_dense([[1.0]])
A_2 = SparseMatrix.from_dense([[2.0]])


def cfg_of(sigma=1.0, lam=1.0, t1_zero=False):
    return EngineConfig(sigma=sigma, lambda_A=lam, t1_zero_path=t1_zero)


# ---------------------------------------------------------------------------
# seminorm


def test_m_norm_hand_values():
    cfg = cfg_of()
    # <w, M w> = y^2 + 2 y x + x^2 = (y + x)^2 for A = [1], sigma = lam = 1
    w = Iterate(np.array([1.0]), np.array([7.0]), np.array([-1.0]))
    assert m_norm_squared(w, cfg, A_1X1) == 0.0  # z never contributes
    w2 = Iterate(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    assert m_norm_squared(w2, cfg, A_1X1) == 4.0
    assert m_norm(w2, cfg, A_1X1) == 2.0


def test_m_norm_t1_zero_block():
    # with T1 = 0 the y block is sigma ||A^T y||^2; here A = [2]
    cfg = cfg_of(1.0, 9.0, t1_zero=True)
    w = Iterate(np.array([1.0]), np.array([0.0]), np.array([0.0]))
    assert m_norm_squared(w, cfg, A_2) == 4.0


def test_m_norm_from_carried_row_product():
    """Given A w.x, the cross term 2 <w.y, A w.x> replaces 2 <A^T w.y, w.x>;
    the T1 = 0 form reads the vector as a carried A^T w.y instead."""
    cfg = cfg_of()
    w2 = Iterate(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    assert m_norm_squared(w2, cfg, A_1X1, np.array([1.0])) == 4.0
    assert m_norm(w2, cfg, A_1X1, np.array([1.0])) == 2.0
    w = Iterate(np.array([1.0]), np.array([7.0]), np.array([-1.0]))
    assert m_norm_squared(w, cfg, A_1X1, np.array([-1.0])) == 0.0
    rng = np.random.default_rng(21)
    for t1_zero in (False, True):
        for _ in range(50):
            m, n = rng.integers(1, 9, size=2)
            dense = rng.standard_normal((m, n))
            A = SparseMatrix.from_dense(dense)
            lam = np.linalg.norm(dense, 2) ** 2 * 1.05
            cfg = cfg_of(rng.uniform(0.1, 3.0), lam, t1_zero)
            w = Iterate(rng.standard_normal(m), rng.standard_normal(n), rng.standard_normal(n))
            ref = m_norm(w, cfg, A)
            product = A.rmatvec(w.y) if t1_zero else A.matvec(w.x)
            assert abs(m_norm(w, cfg, A, product) - ref) <= 1e-12 * ref
    # the T1 = 0 form makes no product of its own from a carried A^T w.y:
    # here A = [2], y = [1] and the vector says A^T y = [3]
    w = Iterate(np.array([1.0]), np.array([0.0]), np.array([0.0]))
    cfg = cfg_of(1.0, 9.0, t1_zero=True)
    assert m_norm_squared(w, cfg, A_2) == 4.0
    assert m_norm_squared(w, cfg, A_2, np.array([3.0])) == 9.0
    assert m_norm(w, cfg, A_2, np.array([3.0])) == 3.0


def test_m_norm_clamps_roundoff():
    # (y + x)^2 with y = -x can come out as a tiny negative number
    w = Iterate(np.array([0.1]), np.array([0.0]), np.array([-0.1]))
    assert m_norm(w, cfg_of(), A_1X1) >= 0.0


def test_m_norm_positive_semidefinite_random():
    """lambda_A >= ||A||^2 makes the quadratic form PSD up to roundoff."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        m, n = rng.integers(1, 7, size=2)
        dense = rng.standard_normal((m, n))
        lam = np.linalg.norm(dense, 2) ** 2 * 1.01
        A = SparseMatrix.from_dense(dense)
        w = Iterate(rng.standard_normal(m), rng.standard_normal(n), rng.standard_normal(n))
        norm_w = np.sqrt(np.dot(w.y, w.y) + np.dot(w.x, w.x))
        assert m_norm_squared(w, cfg_of(0.5, lam), A) >= -1e-12 * max(norm_w**2, 1.0)


def test_m_norm_triangle_inequality():
    rng = np.random.default_rng(13)
    dense = rng.standard_normal((4, 6))
    lam = np.linalg.norm(dense, 2) ** 2 * 1.05
    cfg, A = cfg_of(2.0, lam), SparseMatrix.from_dense(dense)
    for _ in range(50):
        a = Iterate(rng.standard_normal(4), rng.standard_normal(6), rng.standard_normal(6))
        b = Iterate(rng.standard_normal(4), rng.standard_normal(6), rng.standard_normal(6))
        assert m_norm(plus(a, b), cfg, A) <= m_norm(a, cfg, A) + m_norm(b, cfg, A) + 1e-10


def test_m_norm_reads_the_step_parameters_of_the_config():
    """The seminorm's sigma, lambda_A and route are those of the
    EngineConfig, which rejects invalid values, so a re-fit penalty
    reaches it through ``with_sigma``."""
    with pytest.raises(ValueError):
        cfg_of(-1.0, 1.0)
    with pytest.raises(ValueError):
        cfg_of(1.0, 0.0)
    # sigma*lam*y^2 + 2 y x + x^2 / sigma for A = [1]
    w = Iterate(np.array([1.0]), np.array([0.0]), np.array([1.0]))
    cfg = cfg_of(1.0, 4.0)
    assert m_norm_squared(w, cfg, A_1X1) == 7.0
    assert m_norm_squared(w, cfg.with_sigma(2.0), A_1X1) == 10.5
    # the T1 = 0 route ignores lambda_A: sigma (A^T y)^2 + 2 y x + x^2 / sigma
    assert m_norm_squared(w, replace(cfg, t1_zero_path=True), A_1X1) == 4.0


# ---------------------------------------------------------------------------
# restart decision


def test_restart_sufficient_decay():
    cfg = RestartConfig()
    assert check_restart(1.0, 0.5, 0.19, t=5, k=100, cfg=cfg) is RestartReason.SUFFICIENT


def test_restart_necessary_no_progress():
    cfg = RestartConfig()
    # merit between alpha1 and alpha2 of the anchor value, but increasing
    r = check_restart(1.0, 0.5, 0.6, t=5, k=100, cfg=cfg)
    assert r is RestartReason.NECESSARY_NO_PROGRESS


def test_restart_long_loop():
    cfg = RestartConfig()
    assert check_restart(1.0, 0.9, 0.95, t=400, k=1000, cfg=cfg) is RestartReason.LONG_LOOP
    assert check_restart(1.0, 0.9, 0.95, t=359, k=1000, cfg=cfg) is RestartReason.NONE


def test_restart_priority_order():
    """Sufficient decay wins over everything else."""
    cfg = RestartConfig(fixed_period=1)
    r = check_restart(1.0, 0.5, 0.1, t=400, k=1000, cfg=cfg)
    assert r is RestartReason.SUFFICIENT


def test_restart_fixed_period_only():
    cfg = RestartConfig(enabled=False, fixed_period=64)
    assert check_restart(1.0, 0.5, 0.01, t=63, k=100000, cfg=cfg) is RestartReason.NONE
    assert check_restart(1.0, 0.5, 0.01, t=64, k=100000, cfg=cfg) is RestartReason.FIXED


def test_restart_disabled():
    cfg = RestartConfig(enabled=False)
    assert check_restart(1.0, 0.5, 0.01, t=5000, k=5000, cfg=cfg) is RestartReason.NONE


def test_restart_decreasing_merit_between_thresholds_no_restart():
    cfg = RestartConfig()
    # merit in (alpha1, alpha2] but still decreasing, short loop: keep going
    assert check_restart(1.0, 0.7, 0.6, t=5, k=1000, cfg=cfg) is RestartReason.NONE


def test_restart_input_validation():
    cfg = RestartConfig()
    with pytest.raises(ValueError, match="nonnegative"):
        check_restart(-1.0, 0.5, 0.5, t=1, k=1, cfg=cfg)
    with pytest.raises(ValueError, match="counters"):
        check_restart(1.0, 0.5, 0.5, t=0, k=1, cfg=cfg)


def test_restart_config_validation():
    with pytest.raises(ValueError):
        RestartConfig(fixed_period=0)


def test_restart_zero_merit_anchor():
    """A zero-merit anchor makes the sufficient test trivially true (the
    loop has fully converged in seminorm); the driver handles termination."""
    cfg = RestartConfig()
    assert check_restart(0.0, 0.0, 0.0, t=1, k=1, cfg=cfg) is RestartReason.SUFFICIENT


# ---------------------------------------------------------------------------
# penalty update


def test_sigma_update_ratio():
    got = sigma_update(delta_x=2.0, delta_y=1.0, x_scale=0.0, y_scale=0.0, sigma_prev=7.0)
    assert got == 2.0


def test_sigma_update_clamped():
    assert sigma_update(1e20, 1.0, 0.0, 0.0, 1.0) == SIGMA_MAX
    assert sigma_update(1e-12, 1e4, 0.0, 0.0, 1.0) == SIGMA_MIN


def test_sigma_update_vanishing_displacements_keep_previous():
    eps = np.finfo(np.float64).eps
    assert sigma_update(0.0, 1.0, 0.0, 0.0, 3.5) == 3.5
    assert sigma_update(1.0, 0.0, 0.0, 0.0, 3.5) == 3.5
    # scale-relative threshold
    got = sigma_update(eps * 50.0, 1.0, 100.0, 0.0, 3.5)
    assert got == 3.5


def test_sigma_update_rejects_negative():
    with pytest.raises(ValueError):
        sigma_update(-1.0, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        sigma_update(1.0, -1.0, 0.0, 0.0, 1.0)
