"""Exact float-to-text for blocks of float64 values, `%.17g` for policy
tables of a block of values or more and `%.9g` for the curve CSVs: one
significand step per format, then one digit split, word fill and block
writer. Float-to-text only: imported only to write a table that size or a
CSV, so other runs neither compile it nor build its tables."""

import functools

import numpy as np

from .policy import BLOCK_VALUES

# The decimal exponents the `%.17g` tables serve. Values in [1e-49, 1e49)
# take the column log10|x| - E_MIN, truncated, in [0, 99] even where log10 rounds.
E_MIN, E_MAX = -50, 49
SPLIT = 2.0**27 + 1  # Veltkamp's constant: splits a double into two 26-bit halves


def _low(count: int) -> int:
    """The mask of a word's low `count` bytes, `count` clipped to [0, 8]."""
    return 2 ** (8 * min(max(count, 0), 8)) - 1


def _scales():
    """Per `%.17g` column: 10**(16 - e) as a double, its two halves, and its error."""
    scales = []
    for e in range(E_MIN, E_MAX + 1):
        k = 16 - e
        power = float(10**k) if k >= 0 else float(f"1e{k}")
        num, den = power.as_integer_ratio()
        error = (10**k * den - num) / den if k >= 0 else (den - num * 10**-k) / (den * 10**-k)
        c = SPLIT * power
        high = c - (c - power)
        scales.append((power, high, power - high, error))
    return np.array(scales).T.copy()


_SCALES = _scales()
# per count k of digit and point bytes after the first digit, the masks of
# the low k bytes of the digit words and the tail; per point place r, the
# bytes that stay (the others move up one for the point) and the point in
# byte r, none for a place past the last digit word
_KEEP = np.array([[_low(k), _low(k - 8), _low(k - 16)] for k in range(18)], np.uint64).T.copy()
_POINT = (_KEEP[:2, 1:] ^ _KEEP[:2, :-1]) & 0x2E2E2E2E2E2E2E2E
ASCII_ZEROS = 0x3030303030303030


@functools.cache
def layout(digits: int, e_min: int, e_max: int):
    """Tables read off `%.{digits}g` itself; column e - e_min serves exponent
    e: the head and tail words, the point's place and the digits shown
    before it."""
    # all digits nonzero: the mantissa shows what precedes the digits, where
    # the point goes and which digits precede it; the rest is the exponent
    texts = ["%.*g" % (digits, float(f"1.2345678912345678e{e}")) for e in range(e_min, e_max + 1)]
    mantissas = [t.partition("e")[0] for t in texts]
    # byte 0 is the sign's, then "0." and the zeros of a fixed value below 1
    heads = [(b"\0" + t[:t.index("1")].encode()).ljust(8, b"\0") for t in mantissas]
    # byte 0 takes the last digit, then the exponent; byte 7 the separator
    tails = [("\0" + t[len(m):]).encode().ljust(8, b"\0") for t, m in zip(texts, mantissas)]
    # after how many digits past the first the point goes (digits - 1: in
    # the head or nowhere), and how many come before it, shown even if zero
    whole = [len(m.partition(".")[0]) - 1 if m[0] != "0" else 0 for m in mantissas]
    places = [w if "." in m and m[0] != "0" else digits - 1 for w, m in zip(whole, mantissas)]
    words = np.frombuffer(b"".join(heads + tails), "<u8").reshape(2, -1)
    return words, np.array([places, whole], np.uint8)


def _seventeen_digits(values: np.ndarray):
    """(m, i): m each value's 17-digit `%.17g` significand, and i the table
    column of its exponent; None when a value needs the exact path: zero,
    non-finite, |x| outside [1e-49, 1e49), within 1e-9 of a rounding tie, or
    a significand that rounds up to the next power of ten.

    With e an estimate of floor(log10|x|), the product |x| * 10**(16 - e)
    is formed as a double-double: Dekker's exact product of |x| and the
    double nearest the power, plus |x| times that double's error. It is
    within 1e-14 of the exact product, so its floor and its rounding are
    exact away from ties. A floor of at least 1e16 shows that e is not too
    large (just below 1e16, the value rounded at e - 1 has the same text),
    and a rounded significand below 1e17 that it is not too small and that
    nothing carries.
    """
    a = np.abs(values)
    if not (a.min() >= 1e-49 and a.max() < 1e49):
        return None
    i = (np.log10(a) - E_MIN).astype(np.intp)  # a positive number, so truncation floors
    power, power_high, power_low, error = (row[i] for row in _SCALES)
    high = a * SPLIT
    high -= high - a
    low = a - high
    product = a * power
    # Dekker's exact error of the product, then the power's own error
    rest = (high * power_high - product + high * power_low + low * power_high
            + low * power_low + a * error)
    floor = np.floor(rest)
    rest -= floor  # the fraction
    m = product.astype(np.uint64)
    m += floor.astype(np.int64).view(np.uint64)  # floor may be negative: add modulo 2**64
    if not (m.min() >= 10**16 and np.abs(rest - 0.5).min() > 1e-9):
        return None
    m += rest > 0.5
    return None if m.max() >= 10**17 else (m, i)


@functools.cache
def _powers():
    """10**k as the double nearest it, for k in [-292, 309] (1e309 is inf)."""
    return np.array([float(f"1e{k}") for k in range(-292, 310)])


def _nine_digits(values: np.ndarray):
    """(m, i): m each value's 9-digit `%.9g` significand, and i the table
    column of its exponent; None when a value needs the exact path: zero,
    non-finite, |x| outside [1e-300, 1e300], or near a rounding boundary.

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
    s = a * _powers()[600 - e]
    m = np.rint(s)
    if not (m.min() >= 1e8 and m.max() < 1e9 and np.abs(s - m).max() < 0.5 - 1e-6):
        return None
    return m.astype(np.uint64), e


def _digits(m: np.ndarray, words: int):
    """The first digit of each (8 * words + 1)-digit m, for 1 or 2 words;
    the others as words of eight digit values (0-9), the first in the low
    byte; and how many of those are shown, up to the last nonzero one.

    Each eight-digit group splits into four-digit halves in 32-bit lanes,
    then two-digit quarters in 16-bit lanes, then digits: x * 10486 >> 20
    is x // 100 for x < 10**4, and x * 103 >> 10 is x // 10 for x < 100.
    A word's shown digits are its bytes up to the last nonzero one, from
    its bit length, read off its exponent as a double."""
    x = np.empty((words, len(m)), np.uint64)
    for k in reversed(range(words)):
        upper = m // 10**8
        np.subtract(m, upper * 10**8, out=x[k])
        m = upper
    q = x // 10**4
    x = q | (x - q * 10**4) << 32
    q = (x * 10486 >> 20) & 0x0000007F0000007F
    x = q | (x - q * 100) << 16
    q = (x * 103 >> 10) & 0x000F000F000F000F
    x = q | (x - q * 10) << 8
    shown = np.maximum(x.astype(np.float64).view(np.int64) >> 52, 1015) - 1015 >> 3
    return m, x, np.where(shown[-1] > 0, shown[-1] + 8 * (words - 1), shown[0])


def fill(values, m, i, seps, out, tables) -> None:
    """The rows of `out`, (len(values), words + 2) uint64, for values with
    significands m at columns i of tables, a layout(); `seps` holds each
    separator in byte 7. A row is the sign, "0." and zeros, and the first
    digit; the other digits, eight a word; the last digit, the exponent and
    the separator. A point after the first digit moves the digits after it
    up one byte. Bytes the text does not show are NUL, and one pass drops
    them. The arrays of each stage die with its helper, so a block holds
    few at once."""
    words = out.shape[1] - 2
    first, x, after = _digits(m, words)
    r, whole = np.take(tables[1], i, axis=1)
    keep = np.take(_KEEP[:words + 1], np.maximum(after, whole) + (r < after), axis=1)
    x |= ASCII_ZEROS
    kept = x & np.take(_KEEP[:words], r, axis=1)
    x ^= kept  # the bytes that move up one
    kept |= np.take(_POINT[:words], r, axis=1)
    kept |= x << 8
    kept[1:] |= x[:-1] >> 56
    heads, tails = np.take(tables[0], i, axis=1)
    heads |= (first + 48) << 56
    heads |= (values.view(np.uint64) >> 63) * ord("-")
    out[:, 0] = heads
    for k in range(words):
        np.bitwise_and(kept[k], keep[k], out=out[:, k + 1])
    tails |= x[-1] >> 56 & keep[words]
    np.bitwise_or(tails, seps, out=out[:, -1])


def format_block(values: np.ndarray, seps: np.ndarray, out: np.ndarray) -> str | None:
    """Each value as `%.9g` or `%.17g` followed by its separator, or None
    when a value needs the exact `%` path. `out`, (len(values), words + 2)
    uint64 (see fill), picks the format: 3 words a value for `%.9g`, 4 for
    `%.17g`."""
    if out.shape[1] == 3:
        found, tables = _nine_digits(values), (9, -300, 300)
    else:
        found, tables = _seventeen_digits(values), (17, E_MIN, E_MAX)
    if found is None:
        return None
    fill(values, *found, seps, out, layout(*tables))
    return out.tobytes().translate(None, b"\0").decode("ascii")


def write_blocks(fh, line: str, count: int, rows) -> None:
    """Write a table of `count` rows, rows(s) being those in slice s as a 2-D
    array, a block of whole rows (up to BLOCK_VALUES values) at a time.
    `line` is the `%` row template, whose `%.{n}g` fields are each followed
    by a one-byte separator: its precision picks format_block's format, and
    it writes each block that format_block declines."""
    fields = line.split("%")[1:]  # ".17g ", ..., ".17g\n": precision, "g", separator
    block_rows = max(1, BLOCK_VALUES // len(fields))
    seps = np.tile(np.uint64([ord(field[-1]) for field in fields]) << 56, block_rows)
    out = np.empty((len(seps), int(fields[0][1:-2]) // 8 + 2), "<u8")  # see fill: 8 digits a word
    for start in range(0, count, block_rows):
        block = rows(slice(start, start + block_rows)).reshape(-1)
        fh.write(format_block(block, seps[:len(block)], out[:len(block)])
                 or line * (len(block) // len(fields)) % tuple(block.tolist()))

