"""Free group F_k acting on its Cayley tree.

Everything here is exact: words are python strings over the alphabet
a..z (generators) and A..Z (inverses), distances are integers, boundary
cylinder masses are Fractions or integer exponents of 1/(2k-1).  The
tree is 0-hyperbolic, so this module doubles as the brute-force oracle
for the numerical backends.  The closed forms `visual_exponent` and
`tree_busemann` also take a sequence of prefixes or boundary words and
return int64 arrays, with every lcp from one pass of `lcp_table`.  Words
read many times (a partition's cells, which are also the first letters
of the cells' representatives) can be passed instead as their code
matrix: the uint8 letter codes of `_codes`, one zero-padded row per
word, built once.
"""

from fractions import Fraction

import numpy as np

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def letters(rank):
    """Generator letters followed by their inverses, e.g. 'a','b','A','B'."""
    if not 1 <= rank <= 26:
        raise ValueError(f"rank must be in 1..26, got {rank}")
    gens = ALPHABET[:rank]
    return list(gens) + list(gens.upper())


def inv_letter(c):
    return c.lower() if c.isupper() else c.upper()


def inverse(word):
    return "".join(inv_letter(c) for c in reversed(word))


def reduce_word(s, rank=None):
    """Freely reduce a string of letters.  Idempotent."""
    if rank is not None:
        allowed = set(letters(rank))
        for c in s:
            if c not in allowed:
                raise ValueError(f"letter {c!r} not in rank-{rank} alphabet")
    out = []
    for c in s:
        if out and out[-1] == inv_letter(c):
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def is_reduced(s):
    return all(s[i + 1] != inv_letter(s[i]) for i in range(len(s) - 1))


def mul(u, v):
    """Product in the free group (concatenate then cancel)."""
    u = list(u)
    for c in v:
        if u and u[-1] == inv_letter(c):
            u.pop()
        else:
            u.append(c)
    return "".join(u)


def common_prefix_len(u, v):
    n = 0
    for a, b in zip(u, v):
        if a != b:
            break
        n += 1
    return n


def _codes(ws):
    """Letter codes of the words as a uint8 matrix, one row per word,
    zero-padded to the longest.  A uint8 matrix is taken to be such
    codes already and is returned as it is."""
    if isinstance(ws, np.ndarray) and ws.dtype == np.uint8:
        return ws
    rows = np.array(ws, dtype=bytes)
    return rows.view(np.uint8).reshape(len(ws), rows.itemsize)


def lcp_table(us, vs):
    """lcp(u, v) for every u of us (rows) and v of vs (columns), as an
    int64 array, in one pass over the letter positions.  Either side
    may be given as its code matrix (`_codes`)."""
    a, b = _codes(us), _codes(vs)
    lcp = np.zeros((len(a), len(b)), np.int64)
    run = np.ones((len(a), len(b)), bool)  # pairs equal so far
    for k in range(min(a.shape[1], b.shape[1])):
        col = a[:, k, None]
        # the padding code 0 matches no letter
        run &= (col == b[:, k]) & (col != 0)
        lcp += run
    return lcp


def distance(u, v):
    """Tree distance d(u, v) = |u| + |v| - 2 lcp(u, v)."""
    return len(u) + len(v) - 2 * common_prefix_len(u, v)


def geodesic_vertices(u, v):
    """The vertices of the unique tree geodesic from u to v, in order."""
    k = common_prefix_len(u, v)
    up = [u[:i] for i in range(len(u), k, -1)]
    down = [v[:i] for i in range(k, len(v) + 1)]
    return up + down


def canonical_rotation(w):
    """Lexicographically least rotation of a cyclically reduced word."""
    if not w:
        return w
    return min(w[i:] + w[:i] for i in range(len(w)))


def ball_words(radius, rank=2):
    """Yield all reduced words of length <= radius, in
    length-then-lexicographic order.  Deterministic.
    """
    alpha = sorted(letters(rank))
    frontier = [""]
    yield ""
    for _ in range(radius):
        frontier = [w + c for w in frontier for c in alpha
                    if not w or w[-1] != inv_letter(c)]
        yield from frontier


def sphere_counts(radius, rank=2):
    """Exact streamed sphere cardinalities [|S_0|, ..., |S_radius|],
    obtained by walking the tree (not from the closed-form formula).
    """
    k = len(letters(rank))  # letter i has the inverse (i + rank) % k
    # walk the tree keeping only how many frontier words end in each
    # letter; the branching below a vertex depends on nothing else
    counts, ends = [1], [1] * k
    for _ in range(radius):
        counts.append(sum(ends))
        ends = [counts[-1] - ends[(i + rank) % k] for i in range(k)]
    return counts


def ball_count(radius, rank=2):
    return sum(sphere_counts(radius, rank))


def cylinder_measure(prefix, rank=2):
    """Visual (= limiting Patterson-Sullivan) measure of the boundary
    cylinder below `prefix`, base point the identity.  Exact rational:
    (1/2k) * (1/(2k-1))^(len-1).
    """
    if not prefix:
        raise ValueError("cylinder prefix must be nonempty")
    if not is_reduced(prefix):
        raise ValueError("cylinder prefix must be reduced")
    k2 = 2 * rank
    return Fraction(1, k2) * Fraction(1, k2 - 1) ** (len(prefix) - 1)


def visual_exponent(base, prefix):
    """(e, inside): nu_base(cyl(prefix)) in integer form.

    The cylinder is the boundary of the subtree hanging at `prefix` away
    from the identity.  From a base point outside that subtree its mass
    is (1/2k)(1/(2k-1))^e with e = d(base, prefix) - 1; from inside it is
    1 minus that, with e = d(base, parent(prefix)) - 1, the complement of
    the shadow through the parent edge.  With a sequence of prefixes, or
    their code matrix, e and inside are int64 and bool arrays over it.
    """
    if isinstance(prefix, str):
        n, lcp = len(prefix), common_prefix_len(base, prefix)
        empty = not n
    else:
        codes = _codes(prefix)  # zero-padded: full last column, full rows
        n = (codes.shape[1] if codes[:, -1:].all()
             else np.count_nonzero(codes, axis=1))
        lcp = lcp_table([base], codes)[0]
        empty = not np.all(n)
    if empty:
        raise ValueError("cylinder prefix must be nonempty")
    inside = lcp == n
    # inside, the parent edge is one step farther: e = d(base, prefix)
    return len(base) + n - 2 * lcp - 1 + inside, inside


def visual_measure(base, prefix, rank=2):
    """nu_base(cyl(prefix)): visual measure of the cylinder below `prefix`
    (as named from the identity) seen from the vertex `base`.  Exact
    rational, from visual_exponent.
    """
    e, inside = visual_exponent(base, prefix)
    mass = Fraction(1, 2 * rank) * Fraction(1, 2 * rank - 1) ** e
    return 1 - mass if inside else mass


class BoundaryWord:
    """Eventually periodic infinite reduced word: prefix . cycle^inf.

    The concatenations prefix+cycle and cycle+cycle must stay reduced so
    that the infinite word never cancels.
    """

    __slots__ = ("prefix", "cycle")

    def __init__(self, cycle, prefix=""):
        if not cycle:
            raise ValueError("cycle must be nonempty")
        if not (is_reduced(prefix) and is_reduced(cycle)):
            raise ValueError("prefix and cycle must be reduced")
        if not is_reduced(prefix + cycle + cycle):
            raise ValueError("continuation cancels")
        # canonical form: primitive cycle, shortest prefix
        for d in range(1, len(cycle)):
            if len(cycle) % d == 0 and cycle[:d] * (len(cycle) // d) == cycle:
                cycle = cycle[:d]
                break
        while prefix and prefix[-1] == cycle[-1]:
            prefix = prefix[:-1]
            cycle = cycle[-1] + cycle[:-1]
        self.prefix = prefix
        self.cycle = cycle

    def word(self, n):
        """First n letters of the infinite word."""
        reps = max(0, (n - len(self.prefix)) // len(self.cycle) + 1)
        return (self.prefix + self.cycle * reps)[:n]

    def __eq__(self, other):
        if not isinstance(other, BoundaryWord):
            return NotImplemented
        n = (len(self.prefix) + len(other.prefix)
             + 2 * len(self.cycle) * len(other.cycle) + 2)
        return self.word(n) == other.word(n)

    def __hash__(self):
        # canonical: roll the prefix forward until the cycle is in least phase
        return hash(self.word(len(self.prefix) + 4 * len(self.cycle)))

    def __repr__(self):
        pre = f"{self.prefix}." if self.prefix else ""
        return f"BoundaryWord({pre}{self.cycle}^inf)"


def tree_busemann(q, p, xi):
    """b_p(q, xi) = lim_t d(q, c(t)) - t along the ray c from p to xi.

    Exact closed form: the ray leaves p toward the identity until it
    meets xi's ray at depth lcp(p, xi), so
    b_p(q, xi) = |q| - 2 lcp(q, xi) - |p| + 2 lcp(p, xi).
    Normalization b_p(p, xi) = 0.  With a sequence of boundary words xi,
    an int64 array over it; they may be given as the code matrix of
    their first max(|p|, |q|) or more letters.
    """
    n = max(len(p), len(q))
    if isinstance(xi, BoundaryWord):
        target = xi.word(n)
        lcp_q, lcp_p = (common_prefix_len(q, target),
                        common_prefix_len(p, target))
    elif isinstance(xi, np.ndarray):
        if xi.shape[1] < n:
            raise ValueError(f"{xi.shape[1]} letters of each boundary word "
                             f"do not reach depth {n}")
        lcp_q, lcp_p = lcp_table([q, p], xi)
    else:
        lcp_q, lcp_p = lcp_table([q, p], [x.word(n) for x in xi])
    return len(q) - 2 * lcp_q - len(p) + 2 * lcp_p


def _ramp(counts):
    """0, 1, ..., k-1 for each k in counts, concatenated."""
    starts = np.cumsum(counts) - counts
    return np.arange(counts.sum()) - np.repeat(starts, counts)


def necklaces(max_len, rank=2, primitive_only=True):
    """All cyclically reduced cyclic words (canonical least rotation) of
    length <= max_len, i.e. conjugacy classes of F_rank, in
    length-then-lexicographic order.  Oriented: w and w^-1 are distinct
    unless cyclically equal.  Fredricksen-Maiorana / Ruskey-Savage-Wang,
    one length at a time on a uint8 matrix of letter codes: a prenecklace
    a[0..t-1] of period p extends only by codes c >= a[t-p], to period p
    if c = a[t-p] and t+1 otherwise; it is a necklace iff p divides t, and
    a Lyndon word iff p = t.  Each parent's children follow it in letter
    order: no sort.  Complete: a least rotation is a necklace and its
    prefixes reduced prenecklaces; a last letter inverse to the first is
    refused at close.
    """
    alpha = "".join(sorted(letters(rank)))
    lut = np.frombuffer(alpha.encode(), np.uint8)
    inv = np.array([alpha.index(inv_letter(c)) for c in alpha])  # codes
    codes, period, ws = np.zeros((1, 0), np.uint8), np.ones(1, np.int64), []
    ref = np.zeros(1, np.int64)  # a[t - p] of each prenecklace
    for t in range(max_len):
        parent = np.repeat(np.arange(len(codes)), len(lut) - ref)
        c = ref[parent] + _ramp(len(lut) - ref)
        keep = (inv[codes[parent, -1:]] != c[:, None]).all(axis=1)  # reduced
        parent, c = parent[keep], c[keep]
        period = np.where(c == ref[parent], period[parent], t + 1)
        codes = np.column_stack((codes[parent], c.astype(np.uint8)))
        ref = codes[np.arange(len(codes)), t + 1 - period].astype(np.int64)
        out = period == t + 1 if primitive_only else (t + 1) % period == 0
        out &= codes[:, 0] != inv[c]
        ws += lut[codes[out]].view(f"S{t + 1}").ravel().astype(str).tolist()
    return ws
