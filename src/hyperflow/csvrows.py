"""Exact ``%.17g`` text of the run CSVs, formatted by numpy in blocks.

``sample_blocks(labels, values)`` yields the bytes of the rows
``sample_id,t,v_1,...,v_k`` of an (S, T, k) array, a block of about
``CHUNK`` values at a time; they are the bytes that ``"%.17g" % v`` gives
for every number, sample ids included.  The labels, every sample id and
grid time with its comma, come from ``row_labels(times, S)``, once for all
the CSVs of a run.  Values that do not change with time may come as an
(S, 1, k) array: each sample's values are then formatted once and their
text repeated after each of the T time labels, in the same bounded blocks
and with the same bytes as the (S, T, k) array of those rows.

How a double x becomes its 17 significant digits: with X the decimal
exponent of |x|, y = |x| 10^(16 - X) lies in [1e16, 1e17) and the digits are
y rounded to an integer, ties to even.  10^k is held as a double-double
hi + lo, from a table built with exact integer arithmetic, and y is p + t
with p = fl(|x| hi), an integer, and t the exact error of that product
(Dekker's two-product) plus |x| lo.  t carries an error below 1e-14, so
p + rint(t) is the correctly rounded digit string N unless t lies within
1e-6 of a half-integer; those near-ties, non-zero |x| outside
[2^-921, 2^920) (about 1e-278 to 1e277) and non-finite values take
``"%.17g" % x`` instead.  If N reaches 10^17 it carries into X.

Layout follows C's ``%g`` with precision 17: fixed notation for
-4 <= X < 17, else ``d.ddd...e+XX``, with trailing zeros and a bare point
dropped.  ``fields`` writes each value's text left-aligned in three
little-endian 64-bit words, a 24-byte slot with NULs only after the text,
which the longest texts (``-1.2345678901234567e-123``) fill.  It builds
the slots with word operations: the sixteen digits after the leading one
are two words of ASCII from a table of four-digit groups, a byte mask drops
their trailing zeros, the digits after the point move up one byte to make
room for it, a per-row shift puts the lead (sign, ``0.000``-style prefix
and leading digit) in front, and the exponent is OR-ed in after the text.
A row's text is its labels, then each value's slot followed by its comma
or the row's newline, 25 bytes a value; a block is written by dropping its
NUL bytes.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

CHUNK = 4096  # values per block; bounds the memory a block takes

_K = 300  # the power table holds 10^k for |k| <= _K, then a nan entry
_NAN = 2 * _K + 1
_E0 = 1074  # frexp exponents e run from -1073 to 1024
_E_FAST = 920  # |x| in [2^-921, 2^920) take the vectorized path
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def _power_table() -> tuple[np.ndarray, ...]:
    """10^k = hi + lo for |k| <= _K, then nan, with the Veltkamp halves hh + hl of hi.

    Integer to float conversion and int / int true division round correctly,
    so hi and lo are the correctly rounded head and tail of 10^k.
    """
    hi, lo = [], []
    for k in range(-_K, _K + 1):
        n = 10 ** abs(k)
        if k >= 0:
            hi.append(float(n))
            lo.append(float(n - int(hi[-1])))
        else:
            hi.append(1 / n)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * n) / (den * n))
    hi.append(math.nan)
    lo.append(math.nan)
    hh = [_SPLIT * h - (_SPLIT * h - h) for h in hi]
    return tuple(np.array(v) for v in (hi, lo, hh, [h - a for h, a in zip(hi, hh)]))


_P_HI, _P_LO, _P_HH, _P_HL = _power_table()


def _exponent_table() -> tuple[np.ndarray, np.ndarray]:
    """By frexp exponent e, at e modulo the tables' length (so ``take(e, mode="wrap")`` reads them):
    the index of k = 16 - X for the smallest |x| with that exponent, and the smallest
    double >= 10^(X + 1), from which on k is one less.

    Exponents outside [-_E_FAST, _E_FAST] get the nan entry.  For the others
    X = floor((e - 1) log10 2), exactly: (e - 1) log10 2 is 0 or at least
    4e-4 from an integer for |e - 1| < 970.
    """
    index, step = [], []
    for e in [*range(1025), *range(-_E0, 0)]:
        if abs(e) > _E_FAST:
            index.append(_NAN)
            step.append(math.inf)
            continue
        x = math.floor((e - 1) * math.log10(2))
        index.append(16 - x + _K)
        h, tail = _P_HI[x + 1 + _K], _P_LO[x + 1 + _K]
        step.append(math.nextafter(h, math.inf) if tail > 0 else h)
    return np.array(index), np.array(step)


_E_K, _E_STEP = _exponent_table()


def _words(texts) -> np.ndarray:
    """ASCII texts of at most eight bytes as NUL-padded little-endian words."""
    return np.frombuffer(b"".join(s.encode("ascii").ljust(8, b"\0") for s in texts), "<u8")


def _mask(n: int) -> int:
    """The first n bytes of a word, n clipped to 0 ... 8."""
    return (1 << 8 * min(max(n, 0), 8)) - 1


def _layout_table() -> tuple[np.ndarray, ...]:
    """By index of k, for X = 16 - k (X = 16 for the nan entry): the prefix's offset in ``_LEAD``;
    over the two words of the sixteen digits after the leading one, the masks of the digits the
    integer part shows, of the digits before the point's byte P, and the point in byte P; and the
    exponent word.

    P is X in fixed notation with X >= 0, 0 in exponent notation, where the point follows the
    leading digit, and 16, past the last digit, where the prefix holds the point."""
    xs = [16 - k for k in range(-_K, _K + 1)] + [16]
    fixed = [-4 <= x < 17 for x in xs]
    integer = [x if f and x >= 0 else 0 for x, f in zip(xs, fixed)]
    point = [(x if x >= 0 else 16) if f else 0 for x, f in zip(xs, fixed)]
    return (
        np.array([20 * min(max(-x, 0), 4) if f else 0 for x, f in zip(xs, fixed)]),
        np.array([[_mask(i - 8 * w) for i in integer] for w in range(2)], np.uint64),
        np.array([[_mask(p - 8 * w) for p in point] for w in range(2)], np.uint64),
        np.array([[ord(".") << 8 * (p - 8 * w) if 0 <= p - 8 * w < 8 else 0 for p in point] for w in range(2)], np.uint64),
        _words(["" if f else "e%+03d" % x for x, f in zip(xs, fixed)]),
    )


_PREFIX20, _INTEGER, _BEFORE_POINT, _POINT, _SUFFIX = _layout_table()

# by (prefix, sign, leading digit): the sign, the "0.000"-style prefix and the digit, and that
# lead's length in bits; a leading digit 0 is a zero, which has no prefix
_leads = [sign + (p if d else "") + "%d" % d for p in ("", "0.", "0.0", "0.00", "0.000") for sign in ("", "-") for d in range(10)]
_LEAD = _words(_leads)
_LEAD_BITS = np.array([8 * len(s) for s in _leads], np.uint64)
del _leads
# by four-digit group g: its ASCII in the low half of a word
_g = np.arange(10000, dtype=np.uint64)
_DIGITS = sum((_g // 10 ** (3 - i) % 10 + 48) << 8 * i for i in range(4))
del _g
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII zeros
# by the exponent field of a double: for a word of digit values (one a byte) converted to double,
# the mask of its bytes up to the highest non-zero one, none for a zero word
_SHOWN = np.array([_mask((e - 1023) // 8 + 1) if e >= 1023 else 0 for e in range(1023 + 64)], np.uint64)
# by the length of the text before it: the shifts that put the exponent word into each word of the slot
_EXPONENT_LEFT = np.array([[min(max(8 * n - 64 * w, 0), 64) for n in range(25)] for w in range(3)], np.uint64)
_EXPONENT_RIGHT = np.array([[min(max(64 * w - 8 * n, 0), 64) for n in range(25)] for w in range(3)], np.uint64)
_SLOT = 24  # bytes of a value's text
# a value's slot in a row's text, as its three words, then the byte of its comma or newline
_FIELD = np.dtype({"names": ["w0", "w1", "w2", "separator"], "formats": ["<u8", "<u8", "<u8", "u1"], "offsets": [0, 8, 16, 24]})


def fields(x: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of each value of the 1-D array x, left-aligned in a slot of three
    little-endian words with NULs after it: (n, 3) words, a transposed view of (3, n)."""
    x = np.ascontiguousarray(x, dtype=float)
    n = x.size
    a = np.abs(x)
    e = np.frexp(a)[1]
    k = _E_K.take(e, mode="wrap") - (a >= _E_STEP.take(e, mode="wrap"))
    del e
    with np.errstate(invalid="ignore", over="ignore"):
        # y = p + t: p = fl(|x| hi), t = the exact error of that product + |x| lo;
        # in place, with the rounding order of ((((ah hh - p) + ah hl) + al hh) + al hl) + |x| lo
        p = a * _P_HI.take(k)
        ah = _SPLIT * a
        al = ah - a
        ah -= al
        np.subtract(a, ah, out=al)
        hh = _P_HH.take(k)
        t = ah * hh
        t -= p
        hl = _P_HL.take(k)
        ah *= hl
        t += ah
        hh *= al
        t += hh
        al *= hl
        t += al
        a *= _P_LO.take(k)
        t += a
        del a, ah, al, hh, hl
        r = np.rint(t)
        t -= r
        slow = np.flatnonzero(~(np.abs(t, out=t) < 0.499999))  # near-ties and nan
        N = p.astype(np.int64)
        N += r.astype(np.int64)
        del p, r, t
    if slow.size:
        N[slow] = 10**16
        k[slow] = 16 + _K
    carry = np.flatnonzero(N == 10**17)
    if carry.size:
        N[carry] = 10**16
        k[carry] -= 1

    # the digits: the leading one d, then sixteen as two words of ASCII, two four-digit groups
    # each; their trailing zeros are masked off, except the integer part's
    d = N // 10**16
    N -= d * 10**16
    groups = np.empty((2, n), np.int64)
    np.floor_divide(N, 10**8, out=groups[0])
    np.subtract(N, groups[0] * 10**8, out=groups[1])
    del N
    first = groups // 10**4
    groups -= first * 10**4
    digits = _DIGITS.take(groups)
    digits <<= 32
    digits |= _DIGITS.take(first)
    del first, groups
    # shown: each word's digits up to its last non-zero one, whose byte the exponent of the word's
    # digit values as a double gives; a digit shown in the second word shows the whole first
    shown = _SHOWN.take((digits ^ _ZEROS).astype(np.float64).view(np.int64) >> 52)
    shown[0] |= -(shown[1] & 1)
    shown |= _INTEGER.take(k, axis=1)
    digits &= shown

    # the point: the digits from byte P on move up one byte, and the point goes into byte P
    # if a digit follows it; the third word takes the byte pushed out of the second
    words = np.empty((3, n), np.uint64)
    head = words[:2]
    before = digits & _BEFORE_POINT.take(k, axis=1)
    digits ^= before
    np.left_shift(digits, 8, out=head)
    head |= before
    shown &= _POINT.take(k, axis=1)
    head |= shown
    words[1] |= digits[0] >> 56
    np.right_shift(digits[1], 56, out=words[2])
    del head, before, digits, shown

    # the lead in front, by a shift of the whole slot: the sign, a "0.000"-style prefix and the
    # leading digit
    lead = _PREFIX20.take(k) + d + 10 * np.signbit(x)
    bits = _LEAD_BITS.take(lead)
    carry = words[:2] >> (64 - bits)
    words <<= bits
    words[1:] |= carry
    words[0] |= _LEAD.take(lead)
    del lead, bits, carry

    # the exponent after the text, in the words its place falls in
    sci = np.flatnonzero(_SUFFIX.take(k))
    if sci.size:
        sub = words.take(sci, axis=1)
        used = np.count_nonzero(sub.view(np.uint8).reshape(3, -1, 8), axis=(0, 2))
        sub |= (_SUFFIX[k[sci]] << _EXPONENT_LEFT.take(used, axis=1)) >> _EXPONENT_RIGHT.take(used, axis=1)
        words[:, sci] = sub

    for i in slow.tolist():
        words[:, i] = np.frombuffer(("%.17g" % x[i]).encode("ascii").ljust(_SLOT, b"\0"), "<u8")
    return words.T


def texts(x: np.ndarray) -> list[str]:
    """``"%.17g" % v`` for every value of the 1-D array x."""
    out = []
    for lo in range(0, len(x), CHUNK):
        text = _value_text(np.reshape(x[lo : lo + CHUNK], (-1, 1)))
        out += text.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    return out


def row_labels(times: np.ndarray, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """The texts that start the rows, each formatted once: the sample ids and the grid times, with their commas."""
    ids = _left_aligned([f"{s}," for s in range(samples)])
    return ids, _left_aligned([f"{t}," for t in texts(np.asarray(times, dtype=float))])


def sample_blocks(labels: tuple[np.ndarray, np.ndarray], values: np.ndarray) -> Iterator[bytes]:
    """The rows ``sample_id,t,v_1,...,v_k`` of an (S, T, k) array, sample by sample, in blocks.

    Each row starts with its labels from ``row_labels(times, S)``; a block
    holds the rows of about ``CHUNK`` values, and its boundaries may fall
    inside a sample.  An (S, 1, k) array stands for its rows repeated at
    every one of the T times: its S x k values are formatted once, in one
    ``fields`` call, and each block repeats their text.
    """
    S, T, k = values.shape
    step = max(1, CHUNK // k)
    if T == 1:
        yield from _constant_blocks(labels, values.reshape(S, k), step)
        return
    flat = values.reshape(S * T, k)
    for lo in range(0, S * T, step):
        yield _block(flat[lo : lo + step], lo, T, *labels)


def _constant_blocks(labels: tuple[np.ndarray, np.ndarray], values: np.ndarray, step: int) -> Iterator[bytes]:
    """The rows of ``sample_blocks`` for an (S, k) array that holds at every time of the labels,
    ``step`` rows to a block.  Consecutive rows of sample s differ only in their time stamps,
    so each sample's part of a block is one join of its stamps."""
    ids, stamps = ([row.tobytes().rstrip(b"\0") for row in part] for part in labels)
    text = _value_text(values).tobytes().translate(None, b"\0").splitlines(keepends=True)
    T = len(stamps)
    for lo in range(0, len(values) * T, step):
        hi = min(lo + step, len(values) * T)
        yield b"".join(
            ids[s] + (text[s] + ids[s]).join(stamps[max(lo - s * T, 0) : hi - s * T]) + text[s]
            for s in range(lo // T, (hi - 1) // T + 1)
        )


def _block(values: np.ndarray, lo: int, T: int, ids: np.ndarray, stamps: np.ndarray) -> bytearray:
    """The text of rows lo, lo + 1, ... with the given values: the row's sample id from ``ids``
    and time from ``stamps`` (left-aligned, each with its comma), then the values."""
    n, k = values.shape
    rows = np.arange(lo, lo + n)
    sample = rows // T
    at = ids.shape[1] + stamps.shape[1]  # where the values start
    buf = bytearray(n * (at + k * _FIELD.itemsize))
    block = np.frombuffer(buf, np.uint8).reshape(n, -1)
    block[:, : ids.shape[1]] = ids.take(sample, axis=0)
    block[:, ids.shape[1] : at] = stamps.take(rows - sample * T, axis=0)
    _value_text(values, block[:, at:])
    del block
    return buf.translate(None, b"\0")


def _value_text(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The ``%.17g`` text of each row of an (n, k) array as (n, 25 k) bytes, in ``out`` if given:
    each value's 24-byte slot, then its comma or, after the last, the row's newline."""
    n, k = values.shape
    if out is None:
        out = np.empty((n, k * _FIELD.itemsize), np.uint8)
    field = out.view(_FIELD)  # (n, k)
    words = fields(values.reshape(-1))
    for w in range(3):
        field[f"w{w}"] = words[:, w].reshape(n, k)
    field["separator"] = ord(",")
    field["separator"][:, -1] = ord("\n")
    return out


def _left_aligned(texts: list[str]) -> np.ndarray:
    """ASCII texts as the rows of a NUL-padded uint8 array as wide as the longest."""
    width = max(map(len, texts), default=0)
    return np.frombuffer("".join(s.ljust(width, "\0") for s in texts).encode("ascii"), np.uint8).reshape(len(texts), width)
