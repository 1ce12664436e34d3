import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import matrixref
from matrixgen import random_split_nonorthogonal, random_symmetric
from starclean.errors import IllConditioned, MalformedSpec
from starclean.matrixops import (
    DenseMatrix,
    _norm,
    _rank_from_singular_values,
    _unit_scaled,
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
    # at tol = 0 rounding noise counts toward the rank, so this singular
    # matrix is taken to have index 0, and inverting it fails
    A = dm([[0, 0], [2, 5]])
    assert matrix_index(A, tol=0) == 0
    with pytest.raises(IllConditioned, match="^the core block of A is singular$"):
        is_spsr_matrix(A, tol=0)


def test_non_finite_residuals_are_refused():
    # at tol 0 the rank counts 1e-310, and its inverse overflows
    A = DenseMatrix(np.array([[1, 0], [0, 1e-310]]))
    with np.errstate(all="ignore"), pytest.raises(IllConditioned) as info:
        is_spsr_matrix(A, tol=0)
    assert str(info.value) == "non-finite residuals: commute, inner, nilpotent, symmetry"


def test_invertible_split_is_trivial():
    rng = np.random.default_rng(23)
    for n in range(1, 7):
        A = rng.uniform(-1, 1, (n, n)) + np.eye(n) * 3
        res = drazin_inverse(DenseMatrix(A))
        assert res.index == 0 and res.rank == n
        assert np.array_equal(res.core_basis, np.eye(n))
        assert res.null_basis.shape == (n, 0)
        assert np.array_equal(res.drazin, np.linalg.inv(A.astype(complex)))
        assert is_spsr_matrix(DenseMatrix(A))[1]["cross_gram_max"] == 0.0


def test_norm_is_numpys_frobenius_norm():
    rng = np.random.default_rng(29)
    arrays = [np.array([[3 - 4j]]), np.zeros((3, 3), dtype=complex)]
    for n in range(1, 9):
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        arrays += [X, X.T, X.conj().T, X[::2, ::-1], X[:1, :1], X * 1e-170, X * 1e150]
    for X in arrays:
        expected = np.linalg.norm(X)
        assert type(_norm(X)) is float
        assert np.float64(_norm(X)).tobytes() == expected.tobytes(), X.shape


def test_rank_band_is_open_at_both_ends():
    # tol·s0·n = 0.1 exactly, so the band is the open interval (0.01, 1.0)
    assert _rank_from_singular_values(np.array([1.0, 1.0]), 2, 0.05) == 2
    assert _rank_from_singular_values(np.array([1.0, 0.01]), 2, 0.05) == 1
    assert _rank_from_singular_values(np.array([0.0, 0.0]), 2, 0.05) == 0
    assert _rank_from_singular_values(np.array([]), 0, 0.05) == 0
    with pytest.raises(IllConditioned) as info:
        _rank_from_singular_values(np.array([1.0, 0.5, 0.05]), 2, 0.05)
    assert str(info.value) == (
        "singular value 5.000e-01 is within 10x of the rank threshold 1.000e-01"
    )


def _reference_battery(rng):
    """Integer, complex-integer, triangular and matrixgen matrices, n = 1..8."""
    yield from ([[0, 0], [2, 5]], [[0, 1], [0, 0]], [[1e300, 1e300], [0, 0]])
    for n in range(1, 9):
        for _ in range(5):
            yield rng.integers(-3, 4, (n, n))
            yield rng.integers(-2, 3, (n, n)) + 1j * rng.integers(-2, 3, (n, n))
            yield np.triu(rng.integers(-3, 4, (n, n)), 1)
            yield np.triu(rng.integers(-3, 4, (n, n)))
            yield rng.integers(0, 2, (n, n))
            if n >= 2:
                yield random_symmetric(rng, n)
                yield random_split_nonorthogonal(rng, n)


def _answer(decide, *args):
    try:
        return decide(*args)
    except IllConditioned as exc:
        return f"IllConditioned: {exc}"


def test_decisions_match_the_general_path_reference():
    """Verdicts, diagnostics and refusals equal the reference's bit for bit.

    The Drazin inverse itself may differ in the sign of a zero entry for an
    invertible A: the general path multiplies A^-1 by P = I on both sides,
    which turns some -0.0 into 0.0.
    """
    rng = np.random.default_rng(31)
    cases = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for A in _reference_battery(rng):
            M = np.asarray(A, dtype=complex)
            for tol in (0.0, 1e-8, 1e-3, 0.3):
                for involution in ("transpose", "conjugate-transpose"):
                    D = DenseMatrix(M, involution)
                    got = _answer(is_spsr_matrix, D, tol)
                    assert repr(got) == repr(_answer(matrixref.is_spsr_matrix, D, tol))
                    cases += 1
                # the input is_spsr_matrix hands on; raw 1e300 would overflow
                got = _answer(drazin_inverse, _unit_scaled(M), tol)
                want = _answer(matrixref.drazin_inverse, _unit_scaled(M), tol)
                if isinstance(want, str):
                    assert got == want
                    continue
                assert (got.index, got.rank) == (want.index, want.rank)
                assert repr(got.residuals) == repr(want.residuals)
                for field in ("drazin", "core_basis", "null_basis"):
                    x, y = getattr(got, field), getattr(want, field)
                    assert x.shape == y.shape and np.array_equal(x, y), field
    assert cases >= 2000


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
