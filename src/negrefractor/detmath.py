"""Platform-independent arithmetic for every value that reaches a report.

Everything here is built from IEEE-754 basic operations (+ - * / sqrt) in a
fixed order, so its bits depend only on the inputs: not on the BLAS kernel
numpy dispatches to, not on LAPACK, and not on the SIMD flavour of numpy's
transcendental functions.  The report hash relies on that.

  cos_sin           cosine and sine with fdlibm-style argument reduction
  gauss_legendre    Gauss-Legendre nodes and weights on [-1, 1], cached per n
  dot_rows, dot     per-component dot products (no BLAS)
  norm_rows, norm   Euclidean norms from the same sums
  two_prod          Dekker's exact product a * b = p + e (no fused multiply-add)
"""

from __future__ import annotations

import functools
import math

import numpy as np

# pi/2 split for Cody-Waite reduction (fdlibm e_rem_pio2.c): PIO2_1 and
# PIO2_2 carry 33 bits, so n * PIO2_k is exact for |n| < 2^20.
_INVPIO2 = 6.36619772367581382433e-01
_PIO2_1 = 1.57079632673412561417e00
_PIO2_2 = 6.07710050630396597660e-11
_PIO2_2T = 2.02226624879595063154e-21
_MAX_REDUCE = 2.0**19 * _PIO2_1

# minimax polynomials on [-pi/4, pi/4] (fdlibm k_sin.c, k_cos.c)
_S1 = -1.66666666666666324348e-01
_S2 = 8.33333333332248946124e-03
_S3 = -1.98412698298579493134e-04
_S4 = 2.75573137070700676789e-06
_S5 = -2.50507602534068634195e-08
_S6 = 1.58969099521155010221e-10
_C1 = 4.16666666666666019037e-02
_C2 = -1.38888888888741095749e-03
_C3 = 2.48015872894767294178e-05
_C4 = -2.75573143513906633035e-07
_C5 = 2.08757232129817482790e-09
_C6 = -1.13596475577881948265e-11


def cos_sin(x):
    """(cos x, sin x) for |x| < 2^19 pi/2, within 1 ulp; scalar or array."""
    x = np.asarray(x, dtype=float)
    if np.any(~(np.abs(x) < _MAX_REDUCE)):
        raise ValueError("cos_sin needs finite arguments below 2^19 pi/2")
    n = np.rint(x * _INVPIO2)
    # x - n pi/2 as the unevaluated sum y0 + y1 (two reduction steps)
    t = x - n * _PIO2_1
    w = n * _PIO2_2
    r = t - w
    w = n * _PIO2_2T - ((t - r) - w)
    y0 = r - w
    y1 = (r - y0) - w
    z = y0 * y0
    v = z * y0
    p = _S2 + z * (_S3 + z * (_S4 + z * (_S5 + z * _S6)))
    ks = y0 - ((z * (0.5 * y1 - v * p) - y1) - v * _S1)
    zz = z * z
    q = z * (_C1 + z * (_C2 + z * _C3)) + zz * zz * (_C4 + z * (_C5 + z * _C6))
    hz = 0.5 * z
    one_hz = 1.0 - hz
    kc = one_hz + (((1.0 - one_hz) - hz) + (z * q - y0 * y1))
    quadrant = n.astype(np.int64) & 3
    c = np.choose(quadrant, (kc, -ks, -kc, ks))
    s = np.choose(quadrant, (ks, kc, -ks, -kc))
    if c.ndim == 0:
        return float(c), float(s)
    return c, s


# ---------------------------------------------------------------------------
# Gauss-Legendre
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0  # 2^27 + 1 (Dekker)


def two_prod(a, b):
    """a * b = p + e exactly (Dekker; no fused multiply-add needed)."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def _two_sum(a, b):
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def _legendre_dd(n: int, x: np.ndarray):
    """(P_n(x), P_{n-1}(x)) in double-double, at double-precision x."""
    zero = np.zeros_like(x)
    p0h, p0l = np.ones_like(x), zero
    p1h, p1l = x.copy(), zero
    for k in range(1, n):
        # P_{k+1} = ((2k+1) x P_k - k P_{k-1}) / (k+1)
        ah, al = two_prod(p1h, x)
        al = al + p1l * x
        ah, al = _two_sum(ah, al)
        bh, bl = two_prod(ah, float(2 * k + 1))
        bl = bl + al * float(2 * k + 1)
        ch, cl = two_prod(p0h, float(k))
        cl = cl + p0l * float(k)
        sh, se = _two_sum(bh, -ch)
        sl = se + (bl - cl)
        sh, sl = _two_sum(sh, sl)
        qh = sh / float(k + 1)
        ph, pe = two_prod(qh, float(k + 1))
        ql = ((sh - ph) - pe + sl) / float(k + 1)
        p0h, p0l = p1h, p1l
        p1h, p1l = _two_sum(qh, ql)
    return (p1h, p1l), (p0h, p0l)


def _legendre(n: int, x: np.ndarray):
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence in double."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, p0


_NEWTON_STEPS = 4


@functools.lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending Gauss-Legendre nodes and weights on [-1, 1] (read-only).

    Tricomi's estimate cos(pi (4i - 1) / (4n + 2)) starts a fixed number of
    Newton steps on the three-term recurrence.  A last step evaluates the
    recurrence in double-double: its Newton correction d = -P_n/P_n' locates
    the true root at x + d to far below one ulp, so the node x + d is within
    one ulp of it, and the weight 2 / ((1 - x^2) P_n'(x)^2) is carried from x
    to the root by the first-order factor 1 - 2 x d / (1 - x^2).  Nodes are
    computed for x >= 0 and mirrored, so the rule is exactly symmetric.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    half = (n + 1) // 2
    i = np.arange(1, half + 1, dtype=float)
    x, _ = cos_sin(math.pi * (4.0 * i - 1.0) / (4.0 * n + 2.0))
    for _ in range(_NEWTON_STEPS):
        pn, pm = _legendre(n, x)
        x = x - pn * ((1.0 - x) * (1.0 + x)) / (n * (pm - x * pn))
    if n % 2:
        x[-1] = 0.0
    (pnh, pnl), (pmh, pml) = _legendre_dd(n, x)
    one_x2 = (1.0 - x) * (1.0 + x)
    dpn = n * ((pmh - x * pnh) + (pml - x * pnl)) / one_x2
    d = -(pnh + pnl) / dpn
    w = 2.0 / (one_x2 * dpn * dpn) * (1.0 - 2.0 * x * d / one_x2)
    x = x + d
    nodes = np.concatenate([-x[:n // 2], x[::-1]])
    weights = np.concatenate([w[:n // 2], w[::-1]])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


# ---------------------------------------------------------------------------
# dot products and norms without BLAS
# ---------------------------------------------------------------------------

def dot_rows(A: np.ndarray, v) -> np.ndarray:
    """Row-wise dot products A[i] . v (A (N, d); v (d,) or (N, d)),
    summed component by component in index order."""
    A = np.asarray(A, dtype=float)
    v = np.asarray(v, dtype=float)
    out = A[..., 0] * v[..., 0]
    for k in range(1, A.shape[-1]):
        out = out + A[..., k] * v[..., k]
    return out


def dot(u, v) -> float:
    """Dot product of two vectors, summed in index order."""
    u = np.asarray(u, dtype=float).tolist()
    v = np.asarray(v, dtype=float).tolist()
    total = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        total += a * b
    return total


def norm_rows(A: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row."""
    return np.sqrt(dot_rows(A, A))


def norm(v) -> float:
    """Euclidean norm of a vector."""
    return math.sqrt(dot(v, v))
