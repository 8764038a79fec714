"""Exact `%.9g` text for blocks of float64 values: this format's
significands, written by policytext's digit split and word fill. The CLI
imports it when it first writes a CSV, so other commands neither compile it
nor build its tables."""

import numpy as np

from .policytext import fill, layout

_POWERS = np.array([float(f"1e{k}") for k in range(-292, 310)])  # 1e309 is inf


def format_block(values: np.ndarray, seps: np.ndarray, out: np.ndarray) -> str | None:
    """Each value as `%.9g` followed by its separator, or None when a value
    needs the exact path: zero, non-finite, |x| outside [1e-300, 1e300], or
    near a rounding boundary. `out` is (len(values), 3) uint64 (see
    policytext.fill).

    With e = floor(log10|x|) and s = |x| * 10**(8 - e), both factors
    correctly rounded, s is within 2.3e-7 of the exact product while s < 1e9,
    so m = rint(s) is the correctly rounded 9-digit significand whenever
    1e8 <= m < 1e9 and |s - m| < 0.5 - 1e-6. A misestimated e, a round-up to
    the next power of ten and any near-tie fail that check, except that
    log10 of x a few ulps below 10**k may round up to k: then m = 1e8, which
    is also the text of x rounded at exponent k - 1.
    """
    a = np.abs(values)
    if not (a.min() >= 1e-300 and a.max() <= 1e300):
        return None
    e = np.floor(np.log10(a)).astype(np.intp) + 300  # the table column of the exponent
    s = a * _POWERS[600 - e]
    m = np.rint(s)
    if not (m.min() >= 1e8 and m.max() < 1e9 and np.abs(s - m).max() < 0.5 - 1e-6):
        return None
    fill(values, m.astype(np.uint64), e, seps, out, layout(9, -300, 300))
    return out.tobytes().translate(None, b"\0").decode("ascii")
