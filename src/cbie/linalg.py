"""Dense linear algebra of the second-kind system A x = b: one LU that
gives LAPACK's 1-norm condition estimate and the direct solve, and a
Lanczos probe of the largest singular values of K = A - I.

getrf, gecon and getrs come from the OpenBLAS that numpy's own wheels ship
and numpy.linalg has already loaded, bound through ctypes, so the solve
imports no scipy; any other numpy build takes scipy.linalg.lapack's.  The
factors keep scipy.linalg.lu_factor's format, 0-based pivots, bit for bit.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

from .errors import NumericError, ShapeError
from .lcg import Lcg


_OPENBLAS_SYMBOLS = ("scipy_zgetrf_64_", "scipy_zgecon_64_", "scipy_zgetrs_64_")


def _numpy_openblas():
    """numpy's own ILP64 OpenBLAS, which numpy.linalg has already loaded, as
    a ctypes library: the one numpy.libs/libscipy_openblas64_* beside the
    numpy package that exports zgetrf, zgecon and zgetrs (numpy's own
    wheels ship it so); None for any other numpy build."""
    import ctypes

    found = list((Path(np.__file__).parent.parent / "numpy.libs")
                 .glob("libscipy_openblas64_*"))
    if len(found) != 1:
        return None
    try:
        lib = ctypes.CDLL(str(found[0]))
    except OSError:
        return None
    return lib if all(hasattr(lib, name) for name in _OPENBLAS_SYMBOLS) else None


@functools.lru_cache(maxsize=None)
def _lapack() -> tuple:
    """(getrf, gecon, getrs) for complex128, in scipy.linalg.lapack's
    calling convention: getrf(a) -> (lu, piv, info) factors the Fortran-
    ordered a in place, with 0-based pivots; gecon(lu, anorm) -> (rcond,
    info) estimates in the infinity-norm; getrs(lu, piv, b) -> (x, info)
    solves a^T x = b for a vector b into a new array."""
    lib = _numpy_openblas()
    if lib is None:
        from scipy.linalg.lapack import zgecon, zgetrf, zgetrs

        return (lambda a: zgetrf(a, overwrite_a=True),
                lambda lu, anorm: zgecon(lu, anorm, norm="I"),
                lambda lu, piv, b: zgetrs(lu, piv, b, trans=1))

    import ctypes
    from numpy.ctypeslib import ndpointer

    def i64(value):
        return ctypes.byref(ctypes.c_int64(value))

    # ILP64 integers; a Fortran character argument takes a hidden length
    # after all the others
    int_p, float_p = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    mat = ndpointer(np.complex128, ndim=2, flags=("F_CONTIGUOUS", "WRITEABLE"))
    zvec = ndpointer(np.complex128, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE"))
    dvec = ndpointer(np.float64, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE"))
    ivec = ndpointer(np.int64, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE"))
    zgetrf, zgecon, zgetrs = (getattr(lib, name) for name in _OPENBLAS_SYMBOLS)
    zgetrf.argtypes = [int_p, int_p, mat, int_p, ivec, int_p]
    zgecon.argtypes = [ctypes.c_char_p, int_p, mat, int_p, float_p, float_p, zvec, dvec,
                       int_p, ctypes.c_size_t]
    zgetrs.argtypes = [ctypes.c_char_p, int_p, int_p, mat, int_p, ivec, zvec, int_p,
                       int_p, ctypes.c_size_t]
    zgetrf.restype = zgecon.restype = zgetrs.restype = None

    def getrf(a):
        n = _order(a)
        ipiv, info = np.empty(n, dtype=np.int64), ctypes.c_int64()
        zgetrf(i64(n), i64(n), a, i64(max(1, n)), ipiv, ctypes.byref(info))
        return a, (ipiv - 1).astype(np.int32), info.value

    def gecon(lu, anorm):  # lu is getrf's
        n = lu.shape[0]
        rcond, info = ctypes.c_double(), ctypes.c_int64()
        zgecon(b"I", i64(n), lu, i64(max(1, n)), ctypes.byref(ctypes.c_double(anorm)),
               ctypes.byref(rcond), np.empty(2 * n, dtype=complex), np.empty(2 * n),
               ctypes.byref(info), 1)
        return rcond.value, info.value

    def getrs(lu, piv, b):  # checked by lu_solve
        n = lu.shape[0]
        x, info = np.array(b, dtype=complex), ctypes.c_int64()
        zgetrs(b"T", i64(n), i64(1), lu, i64(max(1, n)), piv.astype(np.int64) + 1, x,
               i64(max(1, n)), ctypes.byref(info), 1)
        return x, info.value

    return getrf, gecon, getrs


def _order(a: np.ndarray) -> int:
    """The order of a square matrix; ShapeError for any other."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def lu_condition(matrix: np.ndarray) -> tuple:
    """LU factors of a square matrix A, written over it, and LAPACK's
    estimate of its 1-norm condition number (gecon on those factors,
    Hager-Higham); an exactly zero pivot gives inf.

    The row-major buffer of A is A^T in column-major order, and getrf
    factors it as it lies: the factors (lu, piv) are lu_factor(matrix.T)'s,
    bit for bit, and no copy of the matrix is made.  gecon then estimates
    in the infinity-norm, since ||A^T||_inf = ||A||_1, which is read first.
    On return the array holds lu transposed: read it no more.

    A non-finite entry makes its column sum non-finite: NumericError, raised
    before the array is written."""
    getrf, gecon, _ = _lapack()
    # ||A||_1 adds |A| row by row, in the order np.linalg.norm(matrix, 1) adds
    # it (the same bits), without forming |A|; LAPACK's lange would too, but
    # its scalar complex modulus is several times slower
    colsum, row = np.zeros(matrix.shape[1]), np.empty(matrix.shape[1])
    for r in matrix:
        colsum += np.abs(r, out=row)
    if not np.all(np.isfinite(colsum)):
        raise NumericError("system contains non-finite entries")
    lu, piv, info = getrf(matrix.T)
    if info == 0:
        rcond, info = gecon(lu, colsum.max())
    if info < 0:
        raise NumericError(f"LAPACK rejected argument {-info} of the LU or its estimate")
    if info > 0:  # U has an exactly zero pivot
        rcond = 0.0
    return (lu, piv), (1.0 / rcond if rcond > 0 else np.inf)


def lu_solve(factors: tuple, b: np.ndarray) -> np.ndarray:
    """x with A x = b for a vector b, from `lu_condition`'s factors (lu, piv)
    of A^T (getrs, trans = 'T').  ShapeError unless lu is square, b and piv
    match its order and every pivot is a row of it: LAPACK would read or
    swap rows outside the buffers."""
    lu, piv = factors
    n = _order(lu)
    if np.shape(piv) != (n,) or np.shape(b) != (n,) or np.any((piv < 0) | (piv >= n)):
        raise ShapeError(f"LU solve: factors of order {n}, pivots of shape "
                         f"{np.shape(piv)}, right-hand side of shape {np.shape(b)}")
    x, info = _lapack()[2](lu, piv, b)
    if info < 0:
        raise NumericError(f"LAPACK rejected argument {-info} of the LU solve")
    return x


PROBE_K = 20
PROBE_TOL = 1e-14  # each value's error bound, relative to sigma_1


def probe_spectrum(matrix: np.ndarray) -> tuple:
    """The PROBE_K largest singular values of K = matrix - identity (all of
    them below PROBE_K unknowns), descending, and their ratios
    {m: sigma_m / sigma_1} for m = 5, 10, 20 (0 past the spectrum); the
    numerical signature of the second-kind structure.  `_golub_kahan`
    computes them at every size: a small system's Krylov space runs out,
    which makes its values exact.  matrix is read, not written."""
    sv = _golub_kahan(matrix, min(PROBE_K, matrix.shape[0]))
    ratios = {j: (float(sv[j - 1] / sv[0]) if len(sv) >= j and sv[0] > 0 else 0.0)
              for j in (5, 10, 20)}
    return sv, ratios


def _golub_kahan(m: np.ndarray, k: int) -> np.ndarray:
    """The k largest singular values of K = m - I, descending, by
    Golub-Kahan-Lanczos bidiagonalization (Golub and Kahan 1965).  K is
    applied as v -> m v - v and u -> m^H u - u, one matrix-vector product
    each, and never formed.

    The recurrence builds K V = U B and K^H U = V B^T + beta v' e^T with B
    bidiagonal.  It starts from v = K^H w, w a vector of `Lcg` draws, so
    that V stays in the range of K^H.  Each new u is orthogonalized against
    the stored U and each new v against the stored V: with one side alone,
    U loses orthogonality once K's values span many decades, and the Ritz
    values then grow without bound (Simon and Zha 2000).  `_ritz` gives the
    Ritz values and their bounds; the run stops when each of the k largest
    has bound <= PROBE_TOL sigma_1.  The first check comes at step 2k, and
    each next one 1.5 steps later for each factor of 10 the worst bound has
    left to fall: the bounds stall for tens of steps and then fall about
    tenfold a step, so one step a decade checks about twice as often as
    needed, and each check is an SVD of B.

    A new alpha or beta below dim eps (1 + |B|) is a breakdown: the space
    so far is invariant and its values are exact.  The run goes on from a
    fresh K^H w orthogonal to V, which also finds the further copies of a
    repeated value.  When no part of K^H w is left outside V, the rest of
    the spectrum is zero.  NumericError past 10 k steps, or on a non-finite
    alpha, beta or bound."""
    dim, cap = m.shape[0], 10 * k
    tiny = dim * np.finfo(float).eps
    rng = Lcg(0)
    # the bases, as rows: U (u_1, u_2, ...) and V (v_1, v_2, ...)
    left, right = np.empty((cap, dim), m.dtype), np.empty((cap, dim), m.dtype)
    bidiag = np.zeros((cap, cap))  # B: entry (i, j) is u_i^H K v_j
    rows = cols = 0  # the u and the v so far
    u, v, beta, norm, check = None, None, 0.0, 0.0, 2 * k
    while True:
        if v is None:  # a fresh start
            w = np.array([rng.uniform(-1.0, 1.0) for _ in range(dim)], dtype=m.dtype)
            v = np.conj(w.conj() @ m) - w
            size = _norm(v)
            for _ in range(2):
                v -= _projection(right[:cols], v)
            rest = _norm(v)
            if rest <= tiny * size:
                break  # the rest of K is zero
            v /= rest
        if cols == cap:
            raise NumericError(f"spectrum probe did not converge in {cap} Lanczos steps")
        right[cols] = v
        p = m @ v - v
        if beta:
            p -= beta * u
            bidiag[rows - 1, cols] = beta
        cols += 1
        p -= _projection(left[:rows], p)
        alpha = _norm(p)
        norm = max(norm, alpha)
        if alpha <= tiny * (1.0 + norm):  # K V lies in span U
            v, beta = None, 0.0
            continue
        bidiag[rows, cols - 1] = alpha
        u = left[rows] = p / alpha
        rows += 1
        r = np.conj(u.conj() @ m) - u - alpha * v
        r -= _projection(right[:cols], r)
        beta = _norm(r)
        norm = max(norm, beta)
        if cols == dim or beta <= tiny * (1.0 + norm):  # K^H U lies in span V
            v, beta = None, 0.0
        else:
            v = r / beta
        if rows == check:
            sv, bound = _ritz(bidiag[:rows, :cols], beta, k)
            worst = np.max(bound) / (PROBE_TOL * sv[0])
            if not math.isfinite(worst):
                raise NumericError(f"spectrum probe: non-finite error bound at step {rows}")
            if worst <= 1.0:
                return sv
            check += max(1, math.ceil(1.5 * math.log10(worst)))
    return _ritz(bidiag[:rows, :cols], 0.0, k)[0]


def _projection(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The part of x in the span of basis's orthonormal rows."""
    return np.conj(basis @ x.conj()) @ basis


def _norm(x: np.ndarray) -> float:
    """||x||_2, or NumericError if it is not finite."""
    size = math.sqrt(np.vdot(x, x).real)
    if not math.isfinite(size):
        raise NumericError("spectrum probe: non-finite Lanczos coefficient")
    return size


def _ritz(b: np.ndarray, beta: float, k: int) -> tuple:
    """The k largest singular values of b (zeros past its rows) and their
    bounds min(r, r^2 / gap), from the SVD b = X diag(sigma) Y^T of b
    itself: r = beta |X[last, i]| is the residual of sigma_i, and gap its
    distance to the nearest other eigenvalue of [[0, b], [b^T, 0]], whose
    eigenvalues are +-sigma and |rows - cols| zeros."""
    rows, cols = b.shape
    if not rows:  # K = 0
        return np.zeros(k), np.zeros(0)
    x, s, _ = np.linalg.svd(b, full_matrices=False)
    top = min(k, rows, cols)
    # the eigenvalues descending after an inf: gap_i = min(d[i], d[i + 1])
    d = -np.diff(np.concatenate([[np.inf], s, np.zeros(abs(rows - cols)), -s[::-1]]))
    gap = np.minimum(d[:top], d[1:top + 1])
    r = beta * np.abs(x[rows - 1, :top])
    with np.errstate(divide="ignore", invalid="ignore"):  # gap 0: a repeated value
        bound = np.fmin(r, r * r / gap)
    sv = np.zeros(k)
    sv[:top] = s[:top]
    return sv, bound
