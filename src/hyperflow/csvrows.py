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
dropped.  A field is six little-endian 64-bit words of NUL-padded text:
sign and ``0.000`` prefix then the leading digit, four words of four digits
each followed by a slot for the decimal point, and a word for the exponent
and the separator.  Every layout is the same words with other bytes left
NUL, so a block is written by dropping its NUL bytes.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

CHUNK = 4096  # values per block; bounds the memory a block takes

_K = 300  # the power table holds 10^k for |k| <= _K, then a nan entry
_NAN = 2 * _K + 1
_E0 = 1074  # frexp exponents e run from -1073 to 1024 and index tables as e + _E0
_E_FAST = 920  # |x| in [2^-921, 2^920) take the vectorized path
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_WORDS = 6
_WIDTH = 8 * _WORDS


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
    """By frexp exponent e: the index of k = 16 - X for the smallest |x| with that exponent,
    and the smallest double >= 10^(X + 1), from which on k is one less.

    Exponents outside [-_E_FAST, _E_FAST] get the nan entry.  For the others
    X = floor((e - 1) log10 2), exactly: (e - 1) log10 2 is 0 or at least
    4e-4 from an integer for |e - 1| < 970.
    """
    index, step = [], []
    for e in range(-_E0, 1025):
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


def _layout_table() -> tuple[np.ndarray, ...]:
    """By index of k, for X = 16 - k (X = 16 for the nan entry): the digit the point follows
    (0 in exponent notation, below 0 if it is in the prefix), the prefix's offset in ``_LEAD``,
    the byte of the point's slot (the last byte, which the exponent word overwrites, if the
    point is not in a slot), and the exponent word."""
    xp = [16 - k if -4 <= 16 - k < 17 else 0 for k in range(-_K, _K + 1)] + [16]
    suffix = ["" if -4 <= 16 - k < 17 else "e%+03d" % (16 - k) for k in range(-_K, _K + 1)] + [""]
    return (
        np.array(xp),
        np.array([20 * min(max(-p, 0), 4) for p in xp]),
        np.array([7 + 2 * p if 0 <= p < 16 else _WIDTH - 1 for p in xp]),
        _words(suffix),
    )


_XP, _PREFIX20, _POINT_AT, _SUFFIX = _layout_table()

# the first word by (prefix, sign, leading digit): sign, "0.000"-style prefix, the digit at byte 6
_LEAD = _words([sign + p + "%d" % d for p in ("", "0.", "0.0", "0.00", "0.000") for sign in ("", "-") for d in range(10)])
_quad = np.zeros((10000, 8), np.uint8)
for _i in range(4):  # digit i of 0000 ... 9999 cycles through 0-9, each repeated 10^(3 - i) times
    _quad[:, 2 * _i] = np.tile(np.repeat(np.arange(48, 58, dtype=np.uint8), 10 ** (3 - _i)), 10**_i)
_QUAD = _quad.view("<u8").ravel()  # four digits, each followed by a point slot
_ZERO_END = _quad[:, 6] == 48
# by digits shown, the byte mask of words 1 to 4
_SHOWN = np.frombuffer(b"".join((b"\xff" * max(0, 2 * n - 2)).ljust(32, b"\0") for n in range(18)), "<u8").reshape(18, 4)
_SEPARATOR = ord(",") << 56
_NEWLINE = ord("\n") << 56
del _quad, _i


def fields(x: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of each value of the 1-D array x as (n, 6) words of NUL-padded bytes."""
    x = np.ascontiguousarray(x, dtype=float)
    n = x.size
    a = np.abs(x)
    k = np.add(np.frexp(a)[1], _E0, dtype=np.intp)
    k = _E_K[k] - (a >= _E_STEP[k])
    with np.errstate(invalid="ignore", over="ignore"):
        # y = p + t: p = fl(|x| hi), t = the exact error of that product + |x| lo;
        # in place, with the rounding order of ((((ah hh - p) + ah hl) + al hh) + al hl) + |x| lo
        p = a * _P_HI[k]
        ah = _SPLIT * a
        al = ah - a
        ah -= al
        np.subtract(a, ah, out=al)
        hh = _P_HH[k]
        t = ah * hh
        t -= p
        hl = _P_HL[k]
        ah *= hl
        t += ah
        hh *= al
        t += hh
        al *= hl
        t += al
        a *= _P_LO[k]
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

    # the digits: d and four groups of four, g1 g2 in hi and g3 g4 in N
    hi = N // 10**8
    N -= hi * 10**8
    d = hi // 10**8
    hi -= d * 10**8
    g = N // 10**4
    N -= g * 10**4
    stripped = np.flatnonzero(_ZERO_END[N])  # trailing zeros to drop, zeros among them
    if stripped.size:
        k[stripped[d[stripped] == 0]] = 16 + _K  # zero is written as X = 0

    out = np.empty((n, _WORDS), "<u8")
    out[:, 0] = _LEAD[_PREFIX20[k] + d + 10 * np.signbit(x)]
    out[:, 3] = _QUAD[g]
    out[:, 4] = _QUAD[N]
    del d, N
    np.floor_divide(hi, 10**4, out=g)
    out[:, 1] = _QUAD[g]
    hi -= g * 10**4
    out[:, 2] = _QUAD[hi]
    del g, hi
    text = out.view(np.uint8).reshape(-1)
    text[np.arange(0, n * _WIDTH, _WIDTH) + _POINT_AT[k]] = 46
    out[:, 5] = _SUFFIX[k]  # after the point: a field without one has it in byte 47, which this clears

    if stripped.size:
        sub = out[stripped]
        xp = _XP[k[stripped]]
        shown = sub.view(np.uint8)[:, 6:40:2] != 48  # D0 ... D16
        shown[:, 0] = True  # a zero shows its leading digit
        keep = np.maximum(16 - np.argmax(shown[:, ::-1], axis=1), xp) + 1  # digits shown
        sub[:, 1:5] &= _SHOWN[keep]
        bare = np.flatnonzero(keep <= xp + 1)  # nothing after the point
        sub.view(np.uint8)[bare, _POINT_AT[k[stripped[bare]]]] = 0
        out[stripped] = sub

    for i in slow.tolist():
        s = ("%.17g" % x[i]).encode("ascii")
        out[i] = 0
        text[i * _WIDTH : i * _WIDTH + len(s)] = np.frombuffer(s, np.uint8)
    return out


def texts(x: np.ndarray) -> list[str]:
    """``"%.17g" % v`` for every value of the 1-D array x."""
    out = []
    for lo in range(0, len(x), CHUNK):
        words = fields(x[lo : lo + CHUNK])
        words[:, 5] |= _NEWLINE
        out += words.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
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
    buf = bytearray(n * (ids.shape[1] + stamps.shape[1] + k * _WIDTH))
    block = np.frombuffer(buf, np.uint8).reshape(n, -1)
    block[:, : ids.shape[1]] = ids[sample]
    block[:, ids.shape[1] : -k * _WIDTH] = stamps[rows - sample * T]
    block[:, -k * _WIDTH :] = _value_text(values)
    del block
    return buf.translate(None, b"\0")


def _value_text(values: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of each row of an (n, k) array as NUL-padded bytes, (n, 48 k):
    the values with their commas and the row's newline."""
    n, k = values.shape
    words = fields(values.reshape(-1)).reshape(n, k, _WORDS)
    words[:, :-1, 5] |= _SEPARATOR
    words[:, -1, 5] |= _NEWLINE
    return words.view(np.uint8).reshape(n, -1)


def _left_aligned(texts: list[str]) -> np.ndarray:
    """ASCII texts as the rows of a NUL-padded uint8 array as wide as the longest."""
    width = max(map(len, texts), default=0)
    return np.frombuffer("".join(s.ljust(width, "\0") for s in texts).encode("ascii"), np.uint8).reshape(len(texts), width)
