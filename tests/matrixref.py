"""Test-only reference for the numeric Drazin criterion, in its general form.

The package inverts an invertible A directly and runs the core-nilpotent
split only for index k >= 1; it also takes norms and rank thresholds through
its own small helpers. These functions keep the general path for every
index: the power walk starts from the identity, every A goes through the SVD
of A^k and B = P·inv(P⁻¹AP restricted to the core)·P⁻¹, norms come from
``np.linalg.norm`` and the rank threshold is taken with numpy array
operations. The tests check that the package's verdicts, diagnostics and
refusals equal these, bit for bit.
"""

import numpy as np

from starclean.errors import IllConditioned
from starclean.matrixops import DenseMatrix, DrazinResult, _unit_scaled


def _rank_from_singular_values(s: np.ndarray, n: int, tol: float) -> int:
    if s.size == 0 or s[0] == 0:
        return 0
    thresh = tol * float(s[0]) * n
    band = (s > thresh / 10) & (s < thresh * 10)
    if band.any():
        sigma = float(s[np.flatnonzero(band)[0]])
        raise IllConditioned(
            f"singular value {sigma:.3e} is within 10x of the rank threshold {thresh:.3e}"
        )
    return int((s > thresh).sum())


def numerical_rank(A: np.ndarray, tol: float) -> int:
    A = np.asarray(A, dtype=complex)
    s = np.linalg.svd(A, compute_uv=False)
    return _rank_from_singular_values(s, A.shape[0], tol)


def _index_and_power(M: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """The index k of M, and M^k scaled to unit norm (the identity for k = 0)."""
    n = M.shape[0]
    prev, prev_power = n, np.eye(n, dtype=complex)  # rank of M^0, and M^0
    for k in range(1, n + 1):
        power = prev_power @ M
        norm = np.linalg.norm(power)
        if norm > 0:
            power = power / norm  # rank is scale-invariant; keep powers finite
        rank = numerical_rank(power, tol)
        if rank == prev:
            return k - 1, prev_power
        prev, prev_power = rank, power
    return n, prev_power  # in exact arithmetic the index is at most n


def drazin_inverse(A: DenseMatrix | np.ndarray, tol: float) -> DrazinResult:
    """The unique B with AB = BA, BAB = B, and A - A^2 B nilpotent."""
    M = A.data if isinstance(A, DenseMatrix) else np.asarray(A, dtype=complex)
    n = M.shape[0]
    k, power = _index_and_power(M, tol)
    U, s, Vh = np.linalg.svd(power)
    r = _rank_from_singular_values(s, n, tol)
    core = U[:, :r]
    null = Vh[r:, :].conj().T
    P = np.hstack([core, null])
    if r in (0, n):
        Pinv = P.conj().T  # unitary
    else:
        if np.linalg.cond(P) > 1e12:
            raise IllConditioned("core/null bases are nearly dependent")
        Pinv = np.linalg.inv(P)
    blocks = Pinv @ M @ P
    middle = np.zeros((n, n), dtype=complex)
    if r > 0:
        try:
            middle[:r, :r] = np.linalg.inv(blocks[:r, :r])
        except np.linalg.LinAlgError as exc:  # a tol near 0 let noise count as rank
            raise IllConditioned("the core block of A is singular") from exc
    B = P @ middle @ Pinv

    scale_a = max(1.0, float(np.linalg.norm(M)))
    scale_b = max(1.0, float(np.linalg.norm(B)))
    nil_part = M - M @ M @ B
    nil_power = np.linalg.matrix_power(nil_part, n)
    residuals = {
        "commute": float(np.linalg.norm(M @ B - B @ M)) / (scale_a * scale_b),
        "inner": float(np.linalg.norm(B @ M @ B - B)) / scale_b,
        "nilpotent": float(np.linalg.norm(nil_power)) / scale_a**n,
    }
    return DrazinResult(B, k, r, residuals, core, null)


def is_spsr_matrix(A: DenseMatrix, tol: float) -> tuple[bool, dict]:
    """Decide the property via (AB)* = AB; diagnostics carry the cross-basis test."""
    M = _unit_scaled(A.data)
    res = drazin_inverse(M, tol)
    AB = M @ res.drazin
    sym_residual = float(np.linalg.norm(AB - A.star(AB))) / max(1.0, float(np.linalg.norm(AB)))
    verdict = sym_residual <= tol
    if res.core_basis.shape[1] and res.null_basis.shape[1]:
        gram = A.star(res.core_basis) @ res.null_basis
        gram_max = float(np.abs(gram).max())
    else:
        gram_max = 0.0
    diagnostics = {
        "index": res.index,
        "rank": res.rank,
        "residuals": res.residuals,
        "symmetry_residual": sym_residual,
        "cross_gram_max": gram_max,
        "gram_verdict": gram_max <= tol,
    }
    return verdict, diagnostics
