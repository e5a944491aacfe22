"""Scalar kernels shared by every excursion-probability formula.

Conventions used throughout:

* Hermite polynomials are the probabilists' family,
  H_j(x) = (-1)^j e^{x^2/2} (d^j/dx^j) e^{-x^2/2},
  generated by the recurrence H_{j+1}(x) = x H_j(x) - j H_{j-1}(x) with
  H_0 = 1 and H_1 = x.  (Not the physicists' convention.)
* Psi(u) is the standard normal upper tail P{N(0,1) >= u}.
* The level kernels are

      beta_0(u) = Psi(u)
      beta_j(u) = (2 pi)^{-(j+1)/2} H_{j-1}(u) e^{-u^2/2}     for j >= 1.

All three are exact evaluations (no quadrature): Psi goes through the
complementary error function, which has no cancellation in the tail.

The complementary error function is a port of the Cephes ``ndtr.c``
``erfc`` (S. L. Moshier, *Methods and Programs for Mathematical
Functions*, 1989), the routine ``scipy.special.erfc`` evaluates for real
doubles.  The coefficients, the branch points, the underflow cut and
the Horner order are Cephes', so the result is bit-identical to
``scipy.special.erfc``, provided the exponential is the C library's
``exp``: ``math.exp`` calls it, whereas ``np.exp`` has its own SIMD
loops that differ from it in the last bit.  The scaled tail reads the
same rational pieces without their exponential factor, so no module of
the package imports scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError, _check_count

__all__ = ["hermite", "gaussian_tail", "gaussian_tail_scaled", "beta_j"]


def hermite(j: int, x):
    """Evaluate the probabilists' Hermite polynomial H_j at x.

    x may be a scalar or an ndarray; the return type follows the input.
    The three-term recurrence is numerically stable for the small
    degrees (j <= a few dozen) used here.
    """
    # The expansions here never need more than the domain dimension; the
    # cap at 64 keeps the recurrence in a well-conditioned regime.
    j = _check_count("hermite degree", j, 0, 64)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValidationError("hermite argument must be finite")
    h_prev = np.ones_like(x)
    if j == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = x.copy()
    for degree in range(1, j):
        h, h_prev = x * h - degree * h_prev, h
    return h if h.ndim else float(h)


# Cephes ndtr.c: erfc(x) = exp(-x^2) P(|x|)/Q(|x|) on 1 <= |x| < 8,
# exp(-x^2) R(|x|)/S(|x|) beyond, and 1 - x T(x^2)/U(x^2) on |x| < 1;
# 2 minus the value at |x| for negative x.  The leading 1 of Q, S and U
# is implicit (p1evl).
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
# Natural log of the largest double: exp(-x^2) underflows past it.
_MAXLOG = 7.09782712893383996843e2
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erfc(a: float) -> float:
    """Complementary error function of a finite float, as Cephes computes it."""
    x = abs(a)
    if x < 1.0:
        z = a * a
        return 1.0 - a * _polevl(z, _T) / _p1evl(z, _U)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0.0 else 0.0
    if x < 8.0:
        p, q = _polevl(x, _P), _p1evl(x, _Q)
    else:
        p, q = _polevl(x, _R), _p1evl(x, _S)
    y = (math.exp(z) * p) / q
    return 2.0 - y if a < 0.0 else y


def _erfcx(x: float) -> float:
    """Scaled complementary error function e^{x^2} erfc(x) of a finite float."""
    if x < 1.0:
        try:
            return math.exp(x * x) * _erfc(x)
        except OverflowError:
            return math.inf
    if x > 5e7:
        # The next term of the asymptotic series is below an ulp here, and
        # the degree-6 rational overflows to nan above about 2e51.
        return _INV_SQRT_PI / x
    if x < 8.0:
        return _polevl(x, _P) / _p1evl(x, _Q)
    return _polevl(x, _R) / _p1evl(x, _S)


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)


def gaussian_tail(u):
    """Standard normal upper tail Psi(u) = P{N(0,1) >= u}.

    Computed as erfc(u / sqrt(2)) / 2, accurate to full double precision
    for every representable u (the tail underflows to 0 near u ~ 38.5).
    erfc is the Cephes port above, applied element by element; the
    result is bit-identical to ``0.5 * scipy.special.erfc(u / sqrt(2))``
    as long as its exponential stays the C library's (``math.exp``,
    never ``np.exp``).
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValidationError("gaussian_tail argument must be finite")
    out = 0.5 * _elementwise(_erfc, u / math.sqrt(2.0))
    return out if out.ndim else float(out)


def gaussian_tail_scaled(u):
    """Exponentially scaled tail, e^{u^2/2} * Psi(u).

    Stays representable far beyond the underflow point of Psi itself;
    used for Mills-ratio checks and leading-order tail algebra at large u.
    Where e^{u^2/2} overflows (u below about -37.7) the value is inf, as
    ``scipy.special.erfcx`` gives it.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValidationError("gaussian_tail_scaled argument must be finite")
    out = 0.5 * _elementwise(_erfcx, u / math.sqrt(2.0))
    return out if out.ndim else float(out)


def beta_j(j: int, u):
    """Level kernel beta_j(u) of the Euler-characteristic expansion.

    beta_0 is the Gaussian tail; for j >= 1,
    beta_j(u) = (2 pi)^{-(j+1)/2} H_{j-1}(u) e^{-u^2/2}.
    """
    j = _check_count("beta_j index", j, 0)
    if j == 0:
        return gaussian_tail(u)
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)):
        raise ValidationError("beta_j argument must be finite")
    scale = (2.0 * math.pi) ** (-(j + 1) / 2.0)
    out = scale * np.asarray(hermite(j - 1, u_arr)) * np.exp(-0.5 * u_arr**2)
    return out if out.ndim else float(out)
