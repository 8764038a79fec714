"""Exact `%.9g` text for blocks of float64 values. The CLI imports it when
it first writes a CSV, so other commands neither compile it nor build its tables."""

import numpy as np


def _tables():
    """Tables read off `%.9g` itself; row e + 300 of heads, tails and keys serves exponent e."""
    powers = np.array([float(f"1e{k}") for k in range(-292, 310)])  # 1e309 is inf
    texts = ["%.9g" % float(f"1e{e}") for e in range(-300, 301)]
    # a sign byte, "0." and the zeros of a fixed value below 1, first digit, point
    heads = np.array([(b"\0" + t[:t.index("1")].encode()).ljust(7, b"\0") + b"." for t in texts],
                     "S8").view("<u8")
    tails = np.array([t[t.index("e"):].encode() if "e" in t else b"" for t in texts], "S8")
    keys = (np.clip(np.arange(-300, 301), -5, 9) + 5) * 9 + 8
    i = np.arange(10000)
    digits = sum((i // 10 ** (3 - k) % 10 + 48).astype(np.uint64) << 16 * k for k in range(4))
    digits |= np.frombuffer(b"\0." * 4, "<u8")  # four digits, each with a point
    zeros = sum((i % 10**k == 0).astype(np.intp) for k in range(1, 5))  # trailing, 4 for 0
    # per key 9 * case + n - 1 (notation case, n significant digits): the bytes
    # of the first three words that the text shows; the six head bytes always,
    # then digit j at byte 6 + 2j and its point at 7 + 2j ("12.3" as "1 2.3")
    samples = ["%.9g" % float(f"{'123456789'[:n]}e{case - 4 - n}")
               for case in range(15) for n in range(1, 10)]
    shown = [" ".join(t.partition("e")[0].removeprefix("0.").lstrip("0")) for t in samples]
    masks = np.array([b"#" * 6 + t.replace(" . ", ".").encode() for t in shown], "S24")
    masks = ((masks.view(np.uint8) > ord(" ")) * np.uint8(0xFF)).reshape(135, 24)
    return powers, heads, tails.view("<u8"), keys, digits, zeros, masks.view("<u8").T.copy()


_POWERS, _HEADS, _TAILS, _KEYS, _DIGITS, _ZEROS, _MASKS = _tables()


def format_block(values: np.ndarray, seps: np.ndarray, out: np.ndarray) -> str | None:
    """Each value as `%.9g` followed by its separator, or None when a value
    needs the exact path: zero, non-finite, |x| outside [1e-300, 1e300], or
    near a rounding boundary.

    With e = floor(log10|x|) and s = |x| * 10**(8 - e), both factors
    correctly rounded, s is within 2.3e-7 of the exact product while s < 1e9,
    so m = rint(s) is the correctly rounded 9-digit significand whenever
    1e8 <= m < 1e9 and |s - m| < 0.5 - 1e-6. A misestimated e, a round-up to
    the next power of ten and any near-tie fail that check, except that
    log10 of x a few ulps below 10**k may round up to k: then m = 1e8, which
    is also the text of x rounded at exponent k - 1.

    Each value fills a row of `out`, (len(values), 4) uint64: sign, head and
    first digit; eight digits; tail and the separator that `seps` holds in
    byte 5. Bytes the text does not show are NUL, and one pass drops them.
    """
    a = np.abs(values)
    if not (a.min() >= 1e-300 and a.max() <= 1e300):
        return None
    e = np.floor(np.log10(a)).astype(np.intp) + 300  # the table row of the exponent
    s = a * _POWERS[600 - e]
    m = np.rint(s)
    if not (m.min() >= 1e8 and m.max() < 1e9 and np.abs(s - m).max() < 0.5 - 1e-6):
        return None
    q = np.floor(m / 1e4)  # m = d0 * 1e8 + g1 * 1e4 + g2, each quotient exact
    d0 = np.floor(q / 1e4)
    g1, g2 = (q - d0 * 1e4).astype(np.intp), (m - q * 1e4).astype(np.intp)
    key = _KEYS[e] - _ZEROS[g2] - (g2 == 0) * _ZEROS[g1]
    head = _HEADS[e] | (d0.astype(np.uint64) + 48) << 48 | (values < 0) * np.uint64(ord("-"))
    np.bitwise_and(head, _MASKS[0, key], out=out[:, 0])
    np.bitwise_and(_DIGITS[g1], _MASKS[1, key], out=out[:, 1])
    np.bitwise_and(_DIGITS[g2], _MASKS[2, key], out=out[:, 2])
    np.add(_TAILS[e], seps, out=out[:, 3])
    return out.tobytes().translate(None, b"\0").decode("ascii")
