"""Numeric decision of the power-factorization property for complex matrices.

The check runs through the group/Drazin inverse and tests whether A times
its Drazin inverse is fixed by the chosen involution (plain transpose by
default, conjugate transpose optionally). First the index k of A is found.
An invertible A (k = 0) is inverted directly. For k >= 1, space is split
into the column space and null space of A^k and the core block is inverted.
Rank decisions use singular values with a relative threshold and an explicit
ambiguity band; decisions inside the band raise ``IllConditioned`` instead of
guessing.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IllConditioned, MalformedSpec

INVOLUTION_MODES = ("transpose", "conjugate-transpose")
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class DenseMatrix:
    data: np.ndarray
    involution: str = "transpose"

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise MalformedSpec(f"matrix must be square, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise MalformedSpec("matrix entries must be finite")
        if self.involution not in INVOLUTION_MODES:
            raise MalformedSpec(f"involution must be one of {INVOLUTION_MODES}")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def star(self, M: np.ndarray | None = None) -> np.ndarray:
        M = self.data if M is None else M
        return M.T if self.involution == "transpose" else M.conj().T


def _norm(x: np.ndarray) -> float:
    """The Frobenius norm of a complex array, as ``np.linalg.norm(x)`` takes it.

    The same ravel, dot products and square root, bit for bit, without the
    wrapper's argument handling, which costs more than the sum on these sizes.
    """
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _rank_from_singular_values(s: np.ndarray, n: int, tol: float) -> int:
    values = s.tolist()  # at most n values: plain floats beat per-call numpy ops
    if not values or values[0] == 0:
        return 0
    thresh = tol * values[0] * n
    low, high = thresh / 10, thresh * 10
    rank = 0
    for sigma in values:
        if low < sigma < high:
            raise IllConditioned(
                f"singular value {sigma:.3e} is within 10x of the rank threshold {thresh:.3e}"
            )
        rank += sigma > thresh
    return rank


def numerical_rank(A: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    A = np.asarray(A, dtype=complex)
    s = np.linalg.svd(A, compute_uv=False)
    return _rank_from_singular_values(s, A.shape[0], tol)


def matrix_index(A: DenseMatrix | np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Smallest k >= 0 with rank(A^k) = rank(A^(k+1))."""
    M = A.data if isinstance(A, DenseMatrix) else np.asarray(A, dtype=complex)
    return _index_and_power(_unit_scaled(M), tol)[0]


def _index_and_power(M: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """The index k of M, and M^k scaled to unit norm (the identity for k = 0)."""
    n = M.shape[0]
    k, prev, prev_power = 0, n, None  # rank of M^0 = I; I is built only to be returned
    while k < n:  # in exact arithmetic the index is at most n
        power = M if k == 0 else prev_power @ M
        norm = _norm(power)
        if norm > 0:
            power = power / norm  # rank is scale-invariant; keep powers finite
        rank = numerical_rank(power, tol)
        if rank == prev:
            break
        k, prev, prev_power = k + 1, rank, power
    return k, np.eye(n, dtype=complex) if k == 0 else prev_power


@dataclass(frozen=True)
class DrazinResult:
    drazin: np.ndarray
    index: int
    rank: int
    residuals: dict
    core_basis: np.ndarray  # orthonormal columns spanning col(A^k)
    null_basis: np.ndarray  # orthonormal columns spanning null(A^k)


def drazin_inverse(A: DenseMatrix | np.ndarray, tol: float = DEFAULT_TOL) -> DrazinResult:
    """The unique B with AB = BA, BAB = B, and A - A^2 B nilpotent.

    Found for the copy 2^-e·A of unit size (see ``_unit_scaled``), whose
    powers stay finite: index, rank, bases and residuals are the copy's, and
    B is the copy's times 2^-e. ``IllConditioned`` is raised when that B
    does not fit the floats."""
    M = A.data if isinstance(A, DenseMatrix) else np.asarray(A, dtype=complex)
    e = _unit_exponent(M)
    M = _times_pow2(M, -e)
    n = M.shape[0]
    k, power = _index_and_power(M, tol)
    if k == 0:
        # power = A^0 = I has rank n at this tol (k = 0 forces 10·tol·n <= 1),
        # so the split is trivial: core = I, no null space, and B = A^-1
        r, core, null = n, power, np.empty((n, 0), dtype=complex)
        try:
            B = np.linalg.inv(M)
        except np.linalg.LinAlgError as exc:  # a tol near 0 let noise count as rank
            raise IllConditioned("the core block of A is singular") from exc
    else:
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
            except np.linalg.LinAlgError as exc:  # as for k = 0
                raise IllConditioned("the core block of A is singular") from exc
        B = P @ middle @ Pinv

    scale_a = max(1.0, _norm(M))
    scale_b = max(1.0, _norm(B))
    nil_part = M - M @ M @ B
    nil_power = np.linalg.matrix_power(nil_part, n)
    residuals = {
        "commute": _norm(M @ B - B @ M) / (scale_a * scale_b),
        "inner": _norm(B @ M @ B - B) / scale_b,
        "nilpotent": _norm(nil_power) / scale_a**n,
    }
    if e:
        with np.errstate(over="ignore"):
            B = _times_pow2(B, -e)
        if not np.isfinite(B).all():
            raise IllConditioned("the Drazin inverse of A lies outside the float range")
    return DrazinResult(B, k, r, residuals, core, null)


def _unit_exponent(M: np.ndarray) -> int:
    """The e with the largest |entry| of 2^-e·M in [1/2, 1), or 0 for M = 0."""
    return math.frexp(np.maximum.reduce(np.abs(M), axis=None, initial=0.0))[1]


def _times_pow2(M: np.ndarray, e: int) -> np.ndarray:
    """M times 2^e, exact while no entry leaves the normal floats."""
    while e:
        step = max(-1000, min(1000, e))  # 2.0**step stays a normal float
        M = M * 2.0**step
        e -= step
    return M


def _unit_scaled(M: np.ndarray) -> np.ndarray:
    """M times the power of two that brings its largest |entry| into [1/2, 1).

    A·A^D is the same for cA as for A (c != 0), and scaling by a power of two
    is exact, so deciding on the scaled matrix makes the verdict independent
    of the input's scale and keeps squares and powers of entries finite.
    """
    return _times_pow2(M, -_unit_exponent(M))


def is_spsr_matrix(
    A: DenseMatrix, tol: float = DEFAULT_TOL
) -> tuple[bool, dict]:
    """Decide the property via (AB)* = AB; diagnostics carry the cross-basis test.

    The cross-gram check pairs the core basis vectors against the null basis
    vectors under the chosen involution; it must agree with the main verdict
    whenever no rank decision was ill-conditioned. A residual that is not
    finite (an inverse that overflowed at a tol near 0) decides nothing, so
    it raises ``IllConditioned`` naming every such residual.
    """
    M = _unit_scaled(A.data)
    res = drazin_inverse(M, tol)
    AB = M @ res.drazin
    sym_residual = _norm(AB - A.star(AB)) / max(1.0, _norm(AB))
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
    # every decision runs this test, so the names are gathered only to refuse
    if not all(map(math.isfinite, (*res.residuals.values(), sym_residual, gram_max))):
        residuals = named_residuals(diagnostics)
        overflowed = sorted(k for k, v in residuals.items() if not math.isfinite(v))
        raise IllConditioned(f"non-finite residuals: {', '.join(overflowed)}")
    return verdict, diagnostics


def named_residuals(diagnostics: dict) -> dict[str, float]:
    """The five residuals of an ``is_spsr_matrix`` decision by name: commute,
    inner, nilpotent, symmetry and cross_gram_max."""
    return {
        **diagnostics["residuals"],
        "symmetry": diagnostics["symmetry_residual"],
        "cross_gram_max": diagnostics["cross_gram_max"],
    }


# -- matrix input ---------------------------------------------------------------


_LONE_IMAG = re.compile(r"(?<![\d.])j")


def parse_complex(text: str) -> complex:
    s = text.strip().replace(" ", "")
    if not s:
        raise MalformedSpec("empty matrix entry")
    s = s.replace("I", "i").replace("i", "j")
    s = _LONE_IMAG.sub("1j", s)
    try:
        return complex(s)
    except ValueError as exc:
        raise MalformedSpec(f"cannot parse complex entry {text!r}") from exc


def load_matrix_csv(text: str, involution: str = "transpose") -> DenseMatrix:
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([parse_complex(cell) for cell in line.split(",")])
    if not rows:
        raise MalformedSpec("matrix file is empty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise MalformedSpec("rows have inconsistent lengths")
    return DenseMatrix(np.array(rows, dtype=complex), involution)


def load_matrix_json(text: str, involution: str = "transpose") -> DenseMatrix:
    try:
        payload = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer too long to convert
        raise MalformedSpec(f"invalid JSON matrix: {exc}") from exc
    if not isinstance(payload, list) or not payload:
        raise MalformedSpec("JSON matrix must be a non-empty array of arrays")
    rows = []
    for row in payload:
        if not isinstance(row, list):
            raise MalformedSpec("JSON matrix must be an array of arrays")
        parsed = []
        for cell in row:
            if isinstance(cell, str):
                parsed.append(parse_complex(cell))
            elif type(cell) in (int, float):  # not bool, which JSON keeps apart
                try:
                    parsed.append(complex(cell))
                except OverflowError as exc:
                    raise MalformedSpec("matrix entry out of floating-point range") from exc
            else:
                raise MalformedSpec(f"unsupported matrix entry {cell!r}")
        rows.append(parsed)
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise MalformedSpec("rows have inconsistent lengths")
    return DenseMatrix(np.array(rows, dtype=complex), involution)


def load_matrix(path: str | Path, involution: str = "transpose") -> DenseMatrix:
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json" or text.lstrip().startswith("["):
        return load_matrix_json(text, involution)
    return load_matrix_csv(text, involution)
