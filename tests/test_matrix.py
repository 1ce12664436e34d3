import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matrixgen import random_split_nonorthogonal, random_symmetric
from starclean.errors import IllConditioned, MalformedSpec
from starclean.matrixops import (
    DenseMatrix,
    drazin_inverse,
    is_spsr_matrix,
    load_matrix_csv,
    load_matrix_json,
    matrix_index,
    numerical_rank,
    parse_complex,
)


def dm(rows, involution="transpose"):
    return DenseMatrix(np.array(rows, dtype=complex), involution)


def test_matrix_index_examples():
    assert matrix_index(dm([[1, 0], [0, 1]])) == 0
    assert matrix_index(dm([[0, 1], [0, 0]])) == 2
    assert matrix_index(dm([[1, 1], [0, 0]])) == 1
    assert matrix_index(dm([[2, 1], [1, 2]])) == 0


def test_drazin_identity_and_nilpotent():
    res = drazin_inverse(dm([[1, 0], [0, 1]]))
    assert np.allclose(res.drazin, np.eye(2))
    assert res.index == 0 and res.rank == 2
    res = drazin_inverse(dm([[0, 1], [0, 0]]))
    assert np.allclose(res.drazin, 0)
    assert res.index == 2 and res.rank == 0


def test_drazin_diagonal_block():
    res = drazin_inverse(dm([[2, 0], [0, 0]]))
    assert np.allclose(res.drazin, np.diag([0.5, 0]))
    assert res.index == 1 and res.rank == 1


def test_drazin_of_idempotent_is_itself():
    A = dm([[1, 1], [0, 0]])
    res = drazin_inverse(A)
    assert np.allclose(res.drazin, A.data)


def test_spsr_examples():
    ok, diag = is_spsr_matrix(dm([[2, 1], [1, 2]]))
    assert ok and diag["gram_verdict"]
    ok, diag = is_spsr_matrix(dm([[1, 1], [0, 0]]))
    assert not ok and not diag["gram_verdict"]
    ok, diag = is_spsr_matrix(dm([[0, 1], [0, 0]]))
    assert ok and diag["gram_verdict"]  # nilpotent: drazin inverse is zero


def test_spsr_invertible_always_true():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        A = rng.uniform(-1, 1, (n, n)) + np.eye(n) * 3  # comfortably invertible
        ok, diag = is_spsr_matrix(DenseMatrix(A))
        assert ok and diag["index"] == 0


def test_singular_symmetric_true():
    ok, diag = is_spsr_matrix(dm([[1, 1], [1, 1]]))
    assert ok and diag["rank"] == 1


def test_hermitian_under_conjugate_transpose():
    A = dm([[2, 1j], [-1j, 1]], involution="conjugate-transpose")
    ok, _ = is_spsr_matrix(A)
    assert ok


def test_random_symmetric_battery():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        A = DenseMatrix(random_symmetric(rng, n))
        ok, diag = is_spsr_matrix(A)
        assert ok and diag["gram_verdict"]


def test_random_split_battery_false():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        A = DenseMatrix(random_split_nonorthogonal(rng, n))
        ok, diag = is_spsr_matrix(A)
        assert not ok and not diag["gram_verdict"]


def test_drazin_residuals_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        if rng.uniform() < 0.5:
            A = random_symmetric(rng, n)
        else:
            A = random_split_nonorthogonal(rng, n)
        res = drazin_inverse(DenseMatrix(A))
        assert res.residuals["commute"] <= 1e-8
        assert res.residuals["inner"] <= 1e-8
        assert res.residuals["nilpotent"] <= 1e-6


def test_verdicts_never_disagree():
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        if rng.uniform() < 0.5:
            A = random_symmetric(rng, n)
        else:
            A = random_split_nonorthogonal(rng, n)
        ok, diag = is_spsr_matrix(DenseMatrix(A))
        assert ok == diag["gram_verdict"]


def test_nonsymmetric_with_orthogonal_split_is_true():
    # symmetry is sufficient but not necessary: what matters is that the core
    # and null subspaces pair to zero under the involution
    rng = np.random.default_rng(5)
    n, r = 6, 3
    Q = np.linalg.qr(rng.uniform(-1, 1, (n, n)))[0]
    C = rng.uniform(-1, 1, (r, r)) + 2 * np.eye(r)
    block = np.zeros((n, n))
    block[:r, :r] = C
    A = Q @ block @ Q.T
    assert not np.allclose(A, A.T)
    ok, diag = is_spsr_matrix(DenseMatrix(A))
    assert ok and diag["gram_verdict"]


def test_larger_sizes_at_default_tolerance():
    rng = np.random.default_rng(6)
    n, r = 100, 60
    m = n - r
    Q = np.linalg.qr(rng.uniform(-1, 1, (n, n)))[0]
    skew = np.eye(n)
    skew[:r, r:] = 0.4 * rng.uniform(-1, 1, (r, m)) / np.sqrt(m)
    P = Q @ skew
    Q1 = np.linalg.qr(rng.uniform(-1, 1, (r, r)))[0]
    Q2 = np.linalg.qr(rng.uniform(-1, 1, (r, r)))[0]
    C = Q1 @ np.diag(rng.uniform(1.0, 2.0, r)) @ Q2  # singular values inside [1, 2]
    N = np.zeros((m, m))
    half = (m + 1) // 2
    N[:half, half:] = rng.uniform(0.3, 1.0, (half, m - half))
    block = np.zeros((n, n))
    block[:r, :r] = C
    block[r:, r:] = N
    A = P @ block @ np.linalg.inv(P)
    ok, diag = is_spsr_matrix(DenseMatrix(A))
    assert not ok and diag["index"] == 2 and diag["rank"] == r
    ok, diag = is_spsr_matrix(DenseMatrix(Q @ block @ Q.T))
    assert ok and diag["gram_verdict"]


def test_ill_conditioned_raises():
    with pytest.raises(IllConditioned):
        numerical_rank(np.diag([1.0, 1e-8]))
    with pytest.raises(IllConditioned):
        matrix_index(dm([[1, 0], [0, 1e-8]]))
    # at tol = 0 rounding noise counts toward the rank, so the core block of
    # this singular matrix is taken to be all of it
    with pytest.raises(IllConditioned):
        is_spsr_matrix(dm([[0, 0], [2, 5]]), tol=0)


def _outcome(A):
    try:
        verdict, diag = is_spsr_matrix(DenseMatrix(A))
    except IllConditioned:
        return "ill-conditioned"
    return [verdict, diag["gram_verdict"], diag["index"], diag["rank"]]


SCALE_CASES = [
    np.array([[1.0, 1.0], [0.0, 0.0]]),
    np.array([[1.0, 1.0], [1.0, 1.0]]),
    np.array([[0.0, 1.0], [0.0, 0.0]]),
    np.array([[2.0, 1.0], [1.0, 2.0]]),
]


@given(st.integers(min_value=-1000, max_value=1000))
def test_verdict_does_not_depend_on_scale(k):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for A in SCALE_CASES:
            assert _outcome(A * 2.0**k) == _outcome(A), (k, A.tolist())
    assert _outcome(SCALE_CASES[0]) == [False, False, 1, 1]


def test_parse_complex():
    assert parse_complex("2") == 2
    assert parse_complex("-1.5") == -1.5
    assert parse_complex("3i") == 3j
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("1-i") == 1 - 1j
    assert parse_complex(" -i ") == -1j
    assert parse_complex("2.5e-2i") == 0.025j
    with pytest.raises(MalformedSpec):
        parse_complex("fish")


def test_load_csv_and_json():
    M = load_matrix_csv("2, 1\n1, 2\n")
    assert np.allclose(M.data, [[2, 1], [1, 2]])
    M = load_matrix_json('[[2, "1i"], ["-1i", 2]]')
    assert M.data[0, 1] == 1j
    with pytest.raises(MalformedSpec):
        load_matrix_csv("1,2\n3\n")
    with pytest.raises(MalformedSpec):
        load_matrix_csv("1,2\n3,4\n5,6\n")  # not square
    with pytest.raises(MalformedSpec):
        load_matrix_json("[[1,2],[3]]")
