"""Exact '%.17g' text of float arrays, formatted many elements per numpy call.

``format_arrays`` prints every element x of every array as Python prints
``'%.17g' % float(x)``, laid out as nested JSON arrays.  Elements are
processed in blocks of ``_BLOCK`` across array boundaries, so one numpy call
serves many small arrays and the scratch memory stays fixed.

Digits.  With e = floor(log10 |x|), the 17 significant digits are |x|·10^(16-e)
rounded to an integer.  That product is formed as a double-double: 10^k is
held as an unevaluated sum hi + lo of two doubles (hi correctly rounded, lo
the correctly rounded remainder, both from exact integer arithmetic), and
|x|·hi is split exactly by Dekker's TwoProduct with Veltkamp's split (Numer.
Math. 18, 224 (1971)).  The sum p + t then equals the exact product within
about 1e-14, while the rounding decision needs the fraction of t only to
within its distance from 1/2.  As in Grisu3 (Loitsch, PLDI 2010), an element
the fast path cannot certify goes to Python's own '%.17g': one within 1e-6
of a rounding tie (exact ties round half-even there), and one outside
[1e-270, 1e290], where the split or the powers would underflow or overflow.

Text.  Each element becomes one row of NUL-padded bytes, written as 8-byte
words gathered from small tables: its sign and the "0.000" prefix of a small
fixed-notation number, its 17 digits each followed by a slot for the point,
its exponent, and the separator after it ("," and the brackets that close
and open there).  Trailing zeros and unused slots stay NUL, and
``bytes.translate`` drops every NUL.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ContractViolation

_BLOCK = 4096  # elements per pass: the scratch arrays stay near 1 MB
_DIGITS = 17
_K_MIN, _K_MAX = -280, 290  # exponents k of the tabulated powers 10^k
_FAST_MIN, _FAST_MAX = 1e-270, 1e290  # |x| the double-double path serves, in whole binades
_TIE_MARGIN = 1e-6
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's constant for doubles
_EXP_MIN, _EXP_MAX = -330, 310  # decimal exponents of the exponent words

# Words of a row: 0 holds the sign, the prefix ("0." to "0.000", or none), the
# first digit and its point slot; 1-4 hold digits 1-16, each with its point
# slot; 5 holds the exponent; the separator follows.
_NUMBER_WORDS = 6


def _split(a):
    """Veltkamp's split: a == hi + lo exactly, each half with at most 26 significant bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _power(k):
    """10^k as (hi, hi's two Veltkamp halves, lo): hi correctly rounded, lo the correctly
    rounded remainder, from exact integer arithmetic."""
    if k >= 0:
        exact = 10 ** k
        hi = float(exact)
        lo = float(exact - int(hi))
    else:
        scale = 10 ** -k
        hi = 1 / scale  # int true division rounds correctly
        num, den = hi.as_integer_ratio()
        lo = (den - num * scale) / (den * scale)
    return (hi, *_split(hi), lo)


def _words(texts, count=1):
    """The texts, NUL-padded to count 8-byte words each, as a uint64 array."""
    return np.array(texts, dtype=f"S{8 * count}").view(np.uint64).reshape(len(texts), count)


@functools.lru_cache(maxsize=1)
def _tables():
    """Lookup tables.

    The printer runs only numpy loops that numpy programs commonly run
    anyway (take, where, copyto, float arithmetic, int64 addition and
    maximum) plus an int64 shift and floor division: the first call of a
    kind of loop pages in more of numpy's code, which raises the peak RSS of
    every process that writes a float array.  So comparisons are taken as
    signs, and masks come from tables.
    """
    # The powers 10^k by k - _K_MIN, as in _power, each filled on its first use.
    powers = np.zeros((4, _K_MAX - _K_MIN + 1)), np.zeros(_K_MAX - _K_MIN + 1, bool)
    # By biased binary exponent b: whether the fast path serves the binade
    # [2^(b-1023), 2^(b-1022)), floor(log10) of its least value, and about the
    # next power of ten (a miss by one ulp only sends an element through the fix).
    fast = np.zeros(2048, bool)
    fast[1023 + math.ceil(math.log2(_FAST_MIN)):1023 + math.floor(math.log2(_FAST_MAX))] = True
    floors = np.floor(np.arange(-1023.0, 1025.0) * math.log10(2.0)).astype(np.intp)
    tens = np.array([10.0 ** k for k in range(-307, 309)] + [math.inf])  # 10^(floor + 1)
    binades = floors, np.take(tens, floors + 308), fast
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    quads = np.zeros((10, 10, 10, 10, 8), np.uint8)  # the digits of q, point slots between
    for place in range(4):
        quads[..., 2 * place] = ascii_digits[(slice(None),) + (None,) * (3 - place)]
    # How many of the digits d0 d1 d2 d3 d4 run up to the last nonzero one of
    # q = d1 d2 d3 d4; below any count for q = 0, since the largest over the words wins.
    significant = np.full(10000, 5, np.intp)
    for count in range(1, 5):
        significant[::10 ** count] = 5 - count
    significant[0] = -_DIGITS
    # Word 0 by (prefix of decimal exponent -j, or none for j = 0; sign; first digit).
    heads = [sign + b"0.000"[:j + 1 if j else 0].ljust(5, b"\0") + bytes([d])
             for j in range(5) for sign in (b"\0", b"-") for d in range(48, 58)]
    # By decimal exponent x - _EXP_MIN: the start of its heads, its exponent word
    # (none in fixed notation), the digits always kept (those before the point) and
    # the digit the point follows (17 for 0.000ddd, whose prefix holds the point).
    layouts = np.ones((4, _EXP_MAX - _EXP_MIN + 1), np.intp)
    small, fixed, end = -4 - _EXP_MIN, -_EXP_MIN, _DIGITS - _EXP_MIN
    layouts[0] = 0
    layouts[0, small:fixed] = [80, 60, 40, 20]
    layouts[1] = np.arange(1, layouts.shape[1] + 1)
    layouts[1, small:end] = 0
    layouts[2:, fixed:end] = np.arange(1, _DIGITS + 1)
    layouts[3, small:fixed] = _DIGITS
    exps = [b""] + [b"e%+03d" % x for x in range(_EXP_MIN, _EXP_MAX + 1)]
    # Row m marks digits m.. of digits 1-16: those past the first m.
    past = np.zeros((_DIGITS + 1, _DIGITS - 1), bool)
    for m in range(_DIGITS + 1):
        past[m, max(m - 1, 0):] = True
    return (powers, binades, _words(heads).ravel(), quads.view(np.uint64).ravel(), significant,
            layouts, _words(exps).ravel(), past)


@functools.lru_cache(maxsize=8)
def _separators(depth):
    """Row r < depth holds "]"*r + "," + "["*r; row depth is empty (after an array's last element)."""
    return _words([b"]" * r + b"," + b"[" * r for r in range(depth)] + [b""], (2 * depth + 6) // 8)


def _scaled(a, e):
    """|x|·10^(16-e) as p + t: p the rounded product, t the rest, within about 1e-14."""
    powers, ready = _tables()[0]
    k = (16 - _K_MIN) - e
    missing = k[~np.take(ready, k)]
    if missing.size:
        for i in set(missing.tolist()):
            powers[:, i] = _power(i + _K_MIN)
        ready[missing] = True
    b, b_hi, b_lo, lo = np.take(powers, k, axis=1)
    a_hi, a_lo = _split(a)
    p = a * b
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err + a * lo


def _outside(p, t):
    """Whether p + t lies below 10^16, and whether it rounds to 10^17 or more.

    Each difference p - bound is exact near the bound (Sterbenz) and far
    larger than t away from it, and rounding keeps the sign of a sum, so the
    signs are those of the exact sums.
    """
    return np.signbit((p - 1e16) + t), ~np.signbit(((p - 1e17) + t) + 0.5)


def _significands(v):
    """(digits, exponent, exact) of finite doubles v: the 17-digit significand D and the
    decimal exponent X with |v| = D·10^(X-16) rounded to nearest; where exact is False
    the fast path could not certify the rounding.  Zeros give D = 0, X = 0."""
    floors, nexts, fast = _tables()[1]
    a = np.abs(v)
    binade = a.view(np.int64) >> 52  # the biased binary exponent
    fast = np.take(fast, binade)
    a = np.where(fast, a, 1.0)
    e = np.take(floors, binade)
    e = np.where(fast, np.where(np.signbit(a - np.take(nexts, binade)), e, e + 1), 0)
    del binade
    p, t = _scaled(a, e)
    # The next power of ten is rounded, so e may miss by one right next to it;
    # compare the exact p + t with the ends.  A product that would round up to
    # 10^17 (below 10^17 by 0.5 or less) stays outside and goes to '%.17g'.
    low, high = _outside(p, t)
    fix = np.flatnonzero(low | high)
    if fix.size:
        e[fix] += np.where(high[fix], 1, -1)
        p[fix], t[fix] = _scaled(a[fix], e[fix])
        fast[fix] &= ~np.logical_or(*_outside(p[fix], t[fix]))
    rounded = np.floor(t + 0.5)  # t + 0.5 is exact, since |t| < 32
    exact = fast & ~np.signbit(np.abs(np.abs(t - rounded) - 0.5) - _TIE_MARGIN)
    digits = p.astype(np.int64) + rounded.astype(np.int64)
    zero = v == 0  # a zero was scaled as 1.0, so e is 0 already
    return np.where(zero, 0, digits), e, exact | zero


def _rows(v, seps, depth):
    """Each double of v as '%.17g' text, then its separator, in rows of NUL-padded bytes."""
    heads, quads, significant, layouts, exps, past = _tables()[2:]
    separators = _separators(depth)
    digits, x, exact = _significands(v)
    head, exp, kept, point = np.take(layouts, x - _EXP_MIN, axis=1)
    rows = np.empty((len(v), _NUMBER_WORDS + separators.shape[1]), np.uint64)
    rows[:, 5] = np.take(exps, exp)
    rows[:, _NUMBER_WORDS:] = np.take(separators, seps, axis=0)
    # Digits 1-16, four to a word, and the count of digits up to the last
    # nonzero one (one for zero): the largest over the words.
    count = np.ones(len(v), np.intp)
    for word in (4, 3, 2, 1):
        quotient = digits // 10 ** 4  # floor division by a scalar runs far faster than %
        group = digits - quotient * 10 ** 4
        digits = quotient
        rows[:, word] = np.take(quads, group)
        count = np.maximum(count, np.take(significant, group) + 4 * (word - 1))
    rows[:, 0] = np.take(heads, head + np.where(np.signbit(v), 10, 0) + digits)  # digit 0
    text = rows.view(np.uint8)
    text[np.arange(len(v)), 5 + 2 * point] = ord(".")  # the slot after digit point - 1
    # Drop trailing zeros past the point; a point slot goes with the digit after it.
    drop = np.take(past, np.maximum(count, kept), axis=0)
    np.copyto(text[:, 8:40:2], 0, where=drop)
    np.copyto(text[:, 7:39:2], 0, where=drop)
    text[:, 39] = 0  # no digit follows digit 16

    slow = np.flatnonzero(~exact)
    if slow.size:
        rows[slow, :_NUMBER_WORDS] = 0
        fallback = np.array(["%.17g" % f for f in v[slow].tolist()], "S24")
        text[slow, :24] = fallback.view(np.uint8).reshape(-1, 24)
    return text


def _empty(shape):
    """Text of an array with no elements, e.g. [[],[],[]] for shape (3, 0, 2)."""
    if shape[0] == 0:
        return "[]"
    return "[" + ",".join([_empty(shape[1:])] * shape[0]) + "]"


def _blocks(sizes):
    """Lists of (array, first element, element count) that cover arrays of these sizes
    in order, _BLOCK elements per list but the last."""
    block, filled = [], 0
    for j, size in enumerate(sizes):
        start = 0
        while start < size:
            count = min(size - start, _BLOCK - filled)
            block.append((j, start, count))
            start += count
            filled += count
            if filled == _BLOCK:
                yield block
                block, filled = [], 0
    if block:
        yield block


def format_arrays(arrays):
    """The canonical JSON text of each float array; ContractViolation if any holds a non-finite."""
    flats = [a.ravel() for a in arrays]
    depth = max([a.ndim for a in arrays] + [1])
    texts = [None if a.size else _empty(a.shape) for a in arrays]
    chunks = []
    for block in _blocks([a.size for a in arrays]):
        v = np.concatenate([flats[j][start:start + count] for j, start, count in block],
                           dtype=np.float64)
        if not np.isfinite(v).all():
            raise ContractViolation("cannot serialize non-finite numbers")
        # The separator after element i closes (and opens) one bracket for each
        # sub-array size that divides i + 1; the sizes nest, so later levels win.
        seps = np.zeros(len(v), np.intp)
        row = 0
        for j, start, count in block:
            size = 1
            for closed, axis in enumerate(reversed(arrays[j].shape[1:]), start=1):
                size *= axis
                seps[row + -(start + 1) % size:row + count:size] = closed
            if start + count == arrays[j].size:
                seps[row + count - 1] = depth  # the closing brackets come with the array
            row += count
        rows = _rows(v, seps, depth)
        row = 0
        for j, start, count in block:
            chunks.append(rows[row:row + count].tobytes().translate(None, b"\0").decode("ascii"))
            row += count
            if start + count == arrays[j].size:  # the array is complete
                brackets = arrays[j].ndim
                texts[j] = "".join(["[" * brackets, *chunks, "]" * brackets])
                chunks = []
    return texts
