"""Algebra identities for the scalar quaternion reference implementation."""

import math

import numpy as np

from qnn.quat import I, J, K, ONE, Quaternion, conjugate, hamilton, norm, normalize, to_matrix


def rand_quat(rng, scale=1.0):
    r, x, y, z = rng.uniform(-scale, scale, size=4)
    return Quaternion(r, x, y, z)


def assert_quat_close(a, b, tol=1e-12):
    assert abs(a.r - b.r) <= tol
    assert abs(a.x - b.x) <= tol
    assert abs(a.y - b.y) <= tol
    assert abs(a.z - b.z) <= tol


def test_identity_element():
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = rand_quat(rng, 5.0)
        assert hamilton(ONE, q) == q
        assert hamilton(q, ONE) == q


def test_basis_table_exact():
    minus_one = Quaternion(-1.0, 0.0, 0.0, 0.0)
    assert hamilton(I, I) == minus_one
    assert hamilton(J, J) == minus_one
    assert hamilton(K, K) == minus_one
    assert hamilton(I, J) == K
    assert hamilton(J, K) == I
    assert hamilton(K, I) == J
    assert hamilton(J, I) == Quaternion(0.0, 0.0, 0.0, -1.0)
    assert hamilton(K, J) == Quaternion(0.0, -1.0, 0.0, 0.0)
    assert hamilton(I, K) == Quaternion(0.0, 0.0, -1.0, 0.0)


def test_hamilton_matches_matrix_oracle():
    rng = np.random.default_rng(1)
    for _ in range(500):
        q1 = rand_quat(rng, 3.0)
        q2 = rand_quat(rng, 3.0)
        direct = hamilton(q1, q2).as_array()
        via_matrix = to_matrix(q1) @ q2.as_array()
        assert np.abs(direct - via_matrix).max() < 1e-12


def test_to_matrix_identity_and_i():
    assert np.array_equal(to_matrix(ONE), np.eye(4))
    mi = to_matrix(I)
    expected = np.zeros((4, 4))
    expected[0, 1] = -1.0
    expected[1, 0] = 1.0
    expected[2, 3] = -1.0
    expected[3, 2] = 1.0
    assert np.array_equal(mi, expected)


def test_matrix_structure():
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = rand_quat(rng, 4.0)
        m = to_matrix(q)
        assert np.all(np.diag(m) == q.r)
        a = m - q.r * np.eye(4)
        assert np.array_equal(a.T, -a)


def test_conjugate():
    assert conjugate(Quaternion(1.0, 2.0, 3.0, 4.0)) == Quaternion(1.0, -2.0, -3.0, -4.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = rand_quat(rng, 5.0)
        assert conjugate(conjugate(q)) == q
        qq = hamilton(q, conjugate(q))
        n2 = norm(q) ** 2
        assert abs(qq.r - n2) < 1e-12 * max(1.0, n2)
        assert abs(qq.x) < 1e-12
        assert abs(qq.y) < 1e-12
        assert abs(qq.z) < 1e-12


def test_norm():
    assert norm(Quaternion(1.0, 1.0, 1.0, 1.0)) == 2.0
    assert norm(Quaternion(0.0, 0.0, 0.0, 0.0)) == 0.0
    rng = np.random.default_rng(4)
    for _ in range(50):
        q = rand_quat(rng, 5.0)
        lhs = norm(q) ** 2
        rhs = hamilton(q, conjugate(q)).r
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_norm_multiplicative():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rand_quat(rng, 5.0)
        b = rand_quat(rng, 5.0)
        lhs = norm(hamilton(a, b))
        rhs = norm(a) * norm(b)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_associativity():
    rng = np.random.default_rng(6)
    for _ in range(200):
        a = rand_quat(rng, 10.0)
        b = rand_quat(rng, 10.0)
        c = rand_quat(rng, 10.0)
        lhs = hamilton(hamilton(a, b), c).as_array()
        rhs = hamilton(a, hamilton(b, c)).as_array()
        assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(lhs).max())


def test_normalize():
    assert_quat_close(normalize(Quaternion(2.0, 0.0, 0.0, 0.0)), ONE, tol=1e-11)
    assert_quat_close(normalize(Quaternion(1.0, 1.0, 1.0, 1.0)), Quaternion(0.5, 0.5, 0.5, 0.5), tol=1e-11)
    zero = Quaternion(0.0, 0.0, 0.0, 0.0)
    assert normalize(zero) == zero


def test_normalize_unit_band():
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = rand_quat(rng, 2.0)
        if norm(q) <= 1e-6:
            continue
        n = norm(normalize(q))
        assert 1.0 - 1e-9 <= n <= 1.0


def test_components_finite_guard():
    q = Quaternion(1.0, -2.5, 3.25, 0.125)
    assert all(math.isfinite(c) for c in (q.r, q.x, q.y, q.z))
