"""The error function in NumPy: a port of Cephes' ``erf``/``erfc`` (S. Moshier,
``ndtr.c``), which uses W. J. Cody's rational approximations (Math. Comp. 23,
1969), with the coefficients SciPy's ``erf`` uses:

    |x| <= 1        erf(x) = x T(x^2) / U(x^2)
    1 < |x| < 8     erf(x) = sign(x) (1 - exp(-x^2) P(|x|) / Q(|x|))
    |x| >= 8        erf(x) = sign(x)

Beyond 8 Cephes evaluates erfc with a third pair R/S, but erfc(8) ~ 1e-29 is
far below half an ulp of 1, so 1 - erfc rounds to exactly 1 there, as it does
at +-inf and wherever exp(-x^2) underflows. Each rational is evaluated only on
its own subset of the input, with in-place Horner steps, one block of the input
at a time.
"""

from __future__ import annotations

import numpy as np

_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(x: np.ndarray, coef: tuple[float, ...], monic: bool = False) -> np.ndarray:
    """coef[0] x^n + ... + coef[n] (Cephes ``polevl``), or with an implied
    leading 1, x^(n+1) + coef[0] x^n + ... + coef[n] (``p1evl``)."""
    acc = x + coef[0] if monic else x * coef[0] + coef[1]
    for c in coef[1 if monic else 2:]:
        acc *= x
        acc += c
    return acc


# elements per block: the temporaries of a block stay cache-sized, and a call's
# transient memory is bounded whatever the size of its input
_BLOCK = 1 << 15


def erf(x) -> np.ndarray:
    """erf of a float64 array, elementwise; erf(+-inf) = +-1 and nan stays nan."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    out = np.empty_like(flat)
    for s in range(0, flat.size, _BLOCK):
        _erf_into(flat[s:s + _BLOCK], out[s:s + _BLOCK])
    return out.reshape(x.shape)


def _erf_into(x: np.ndarray, out: np.ndarray) -> None:
    a = np.abs(x)
    # integer indices: a scatter through them costs about a fifth of one
    # through a boolean mask
    inner = np.flatnonzero(a <= 1.0)
    mid = np.flatnonzero((a > 1.0) & (a < 8.0))
    np.sign(x, out=out)  # the value beyond 8 and at +-inf; nan stays nan
    xi = x[inner]
    z = xi * xi
    y = _horner(z, _T)
    y *= xi
    y /= _horner(z, _U, monic=True)
    out[inner] = y
    am = a[mid]
    y = np.exp(-(am * am))
    y *= _horner(am, _P)
    y /= _horner(am, _Q, monic=True)
    np.subtract(1.0, y, out=y)
    out[mid] = np.copysign(y, x[mid], out=y)
