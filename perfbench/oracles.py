"""Reference values computed without the library, and result digests.

Every oracle here uses its own arithmetic (closed forms, integer brute
force, plain Python words) so that a stage is checked by a route that
shares no code with the one it times.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# digests

def canon(x):
    """Canonical text of a result: floats at 12 significant digits,
    Fractions as p/q, integers exact (the rules of the CLI writers)."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    if isinstance(x, complex):
        return f"{x.real:.12g}{x.imag:+.12g}j"
    if isinstance(x, str):
        return x
    if isinstance(x, np.ndarray):
        return canon(x.tolist())
    if isinstance(x, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(x[k])}"
                              for k in sorted(x)) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(x):
    return hashlib.sha256(canon(x).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# free group F_2 (letters a, b and inverses A, B)

LETTERS = "abAB"


def _inv(c):
    return c.lower() if c.isupper() else c.upper()


def reduced_words(max_len):
    """All reduced words of length <= max_len, shortest first."""
    out, frontier = [""], [""]
    for _ in range(max_len):
        frontier = [w + c for w in frontier for c in LETTERS
                    if not w or w[-1] != _inv(c)]
        out.extend(frontier)
    return out


def tree_ball_count(radius):
    """|B(R)| in the 4-regular tree: 2 * 3^R - 1."""
    return 2 * 3 ** radius - 1


def _mobius(n):
    out, k, p = 1, n, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        p += 1
    return -out if k > 1 else out


def necklace_count(n):
    """Primitive cyclically reduced classes of length n in F_2:
    (1/n) sum_{d | n} mu(n/d) [3^d + (-1)^d + 2]."""
    total = sum(_mobius(n // d) * (3 ** d + (-1) ** d + 2)
                for d in range(1, n + 1) if n % d == 0)
    if total % n:
        raise ArithmeticError("necklace sum not divisible by n")
    return total // n


def least_rotation(w):
    return min(w[i:] + w[:i] for i in range(len(w)))


def is_power(w):
    n = len(w)
    return any(n % d == 0 and w[:d] * (n // d) == w for d in range(1, n))


def check_tree_census(words, max_len):
    """Per-length necklace counts and word-level invariants."""
    if len(set(words)) != len(words):
        return False, "duplicate classes"
    for w in words:
        if any(w[i] == _inv(w[i + 1]) for i in range(len(w) - 1)) \
                or w[0] == _inv(w[-1]):
            return False, f"{w} is not cyclically reduced"
        if w != least_rotation(w) or is_power(w):
            return False, f"{w} is not a primitive least rotation"
    counts = [sum(1 for w in words if len(w) == n)
              for n in range(1, max_len + 1)]
    expect = [necklace_count(n) for n in range(1, max_len + 1)]
    if counts != expect:
        return False, f"counts {counts} != necklace formula {expect}"
    return True, f"{len(words)} classes, per-length counts match"


# ---------------------------------------------------------------------------
# PSL(2, Z) at the base point 2i

def modular_ball_forms(radius):
    """Integer brute force of the orbit ball of 2i in PSL(2, Z).

    For gamma = (a, b, c, d) with ad - bc = 1,
    8 cosh d(2i, gamma 2i) = 4a^2 + b^2 + 16c^2 + 4d^2.  Returns the sorted
    values of that form over the ball, one per element of PSL(2, Z).
    """
    bound = 8.0 * math.cosh(radius)
    amax = int(math.isqrt(int(bound // 4)))
    cmax = int(math.isqrt(int(bound // 16)))
    side = np.arange(-amax, amax + 1, dtype=np.int64)
    a, d = np.meshgrid(side, side, indexing="ij")
    ad = 4 * (a * a + d * d)
    n = a * d - 1  # = b c
    forms = []
    for c in range(-cmax, cmax + 1):
        if c == 0:
            # a = d = +-1 and b is free
            bmax = int(math.isqrt(int(bound - 8)))
            b = np.arange(-bmax, bmax + 1, dtype=np.int64)
            q = 8 + b * b
            forms.append(np.repeat(q[q <= bound], 2))
            continue
        ok = n % c == 0
        b = n[ok] // c
        q = ad[ok] + b * b + 16 * c * c
        forms.append(q[q <= bound])
    q = np.sort(np.concatenate(forms))
    if len(q) % 2:
        raise ArithmeticError("matrix count must be even before +-I")
    return q[::2]  # gamma and -gamma give the same form value


def modular_ball_counts(radii, forms):
    return [int(np.searchsorted(forms, 8.0 * math.cosh(r), side="right"))
            for r in radii]


def ls_slope(xs, ys):
    n = len(xs)
    xbar, ybar = sum(xs) / n, sum(ys) / n
    return (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
            / sum((x - xbar) ** 2 for x in xs))


# ---------------------------------------------------------------------------
# closed geodesics on the modular surface (R/L words)

def _word_trace(w):
    a, b, c, d = 1, 0, 0, 1
    for ch in w:
        if ch == "R":
            b, d = a + b, c + d
        else:
            a, c = a + b, c + d
    return a + d


def check_modular_census(entries, T):
    """Integer traces, lengths 2 arccosh(tr/2), unique primitive least
    rotations containing both letters, sorted and within T."""
    words = [w for _, w in entries]
    if len(set(words)) != len(words):
        return False, "duplicate classes"
    last = 0.0
    for length, w in entries:
        if set(w) != {"R", "L"}:
            return False, f"{w} is not a word in both R and L"
        if w != least_rotation(w) or is_power(w):
            return False, f"{w} is not a primitive least rotation"
        tr = _word_trace(w)
        ref = 2.0 * math.acosh(tr / 2.0)
        if abs(length - ref) > 1e-12 * max(1.0, ref):
            return False, f"{w}: length {length} != 2 arccosh({tr}/2)"
        if length < last or length > T + 1e-12:
            return False, f"{w}: length {length} out of order or above T"
        last = length
    return True, f"{len(entries)} classes, traces and lengths exact"


def check_margulis(entries, table):
    lengths = sorted(length for length, _ in entries)
    for t, p, ratio in table:
        count = sum(1 for length in lengths if length <= t + 1e-12)
        ref = count * t / math.exp(t)
        if p != count or abs(ratio - ref) > 1e-12 * ref:
            return False, f"t={t}: P={p} ratio={ratio}, expected {count}"
    return True, f"{len(table)} Margulis rows match the census"
