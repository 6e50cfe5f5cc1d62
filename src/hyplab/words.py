"""Free group F_k acting on its Cayley tree.

Everything here is exact: words are python strings over the alphabet
a..z (generators) and A..Z (inverses), distances are integers, boundary
cylinder masses are Fractions or integer exponents of 1/(2k-1).  The
tree is 0-hyperbolic, so this module doubles as the brute-force oracle
for the numerical backends.
"""

from fractions import Fraction

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


def distance(u, v):
    """Tree distance d(u, v) = |u| + |v| - 2 lcp(u, v)."""
    return len(u) + len(v) - 2 * common_prefix_len(u, v)


def geodesic_vertices(u, v):
    """The vertices of the unique tree geodesic from u to v, in order."""
    k = common_prefix_len(u, v)
    up = [u[:i] for i in range(len(u), k, -1)]
    down = [v[:i] for i in range(k, len(v) + 1)]
    return up + down


def cyclic_reduce(w):
    """Return (cyclically reduced core, conjugator c) with w = c * core * c^-1.

    |core| is the translation length of w on the tree.  The identity has
    empty core and conjugator.
    """
    conj = []
    while len(w) >= 2 and w[0] == inv_letter(w[-1]):
        conj.append(w[0])
        w = w[1:-1]
    return w, "".join(conj)


def translation_length(w):
    core, _ = cyclic_reduce(w)
    return len(core)


def canonical_rotation(w):
    """Lexicographically least rotation of a cyclically reduced word."""
    if not w:
        return w
    return min(w[i:] + w[:i] for i in range(len(w)))


def is_primitive(w):
    """True iff the cyclic word is not a proper power of a shorter block."""
    n = len(w)
    if n == 0:
        return False
    for d in range(1, n):
        if n % d == 0 and w[:d] * (n // d) == w:
            return False
    return True


def ball_words(radius, rank=2, prefix=""):
    """Yield all reduced words of length <= radius extending `prefix`,
    in length-then-lexicographic order.  Deterministic.
    """
    alpha = sorted(letters(rank))
    if prefix and not is_reduced(prefix):
        raise ValueError("prefix must be reduced")
    frontier = [prefix]
    yield prefix
    for _ in range(len(prefix), radius):
        nxt = []
        for w in frontier:
            for c in alpha:
                if not w or w[-1] != inv_letter(c):
                    nxt.append(w + c)
        frontier = nxt
        yield from frontier


def sphere_counts(radius, rank=2):
    """Exact streamed sphere cardinalities [|S_0|, ..., |S_radius|],
    obtained by walking the tree (not from the closed-form formula).
    """
    alpha = letters(rank)
    counts = [1]
    # walk the tree keeping only the last letter of each frontier word;
    # the branching below a vertex depends on nothing else
    frontier = {}
    for c in alpha:
        frontier[c] = frontier.get(c, 0) + 1
    if radius >= 1:
        counts.append(sum(frontier.values()))
    for _ in range(2, radius + 1):
        nxt = dict.fromkeys(alpha, 0)
        for last, m in frontier.items():
            for c in alpha:
                if c != inv_letter(last):
                    nxt[c] += m
        frontier = nxt
        counts.append(sum(frontier.values()))
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
    the shadow through the parent edge.
    """
    if not prefix:
        raise ValueError("cylinder prefix must be nonempty")
    if prefix == base[: len(prefix)]:
        return distance(base, prefix[:-1]) - 1, True
    return distance(base, prefix) - 1, False


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
    Normalization b_p(p, xi) = 0.
    """
    target = xi.word(max(len(p), len(q)))
    return (len(q) - 2 * common_prefix_len(q, target)
            - len(p) + 2 * common_prefix_len(p, target))


def fellow_travel_deviation(v, rho):
    """Exact max of d(x, [1, v]) over the vertices x of every geodesic
    [u, v w] with |u|, |w| <= rho, in the rank-2 free group.

    d(x, [1, v]) = |x| - lcp(x, v): the nearest point of [1, v] is x's
    longest prefix on it.  Every vertex of [u, v'] is a prefix of u or of
    v', and along a chain of prefixes |x| grows by one per step while
    lcp(x, v) grows by at most one, so the worst vertex of each geodesic
    is an endpoint and the max runs over y in B(rho) and v B(rho) only.
    Each half alone gives exactly rho: d(y, [1, v]) <= |y| on B(rho) and
    <= |w| at y = v w, with equality at a y of length rho leaving v.
    """
    ball = list(ball_words(rho))
    return max(len(y) - common_prefix_len(y, v)
               for y in ball + [mul(v, w) for w in ball])


def tree_ray_vertices(p, xi, horizon):
    """Vertices of the geodesic ray from p toward xi, times 0..horizon."""
    target = xi.word(len(p) + len(xi.prefix) + 2 * len(xi.cycle) + horizon + 4)
    k = common_prefix_len(p, target)
    verts = [p[:i] for i in range(len(p), k, -1)]
    i = k
    while len(verts) <= horizon + 1:
        verts.append(target[:i])
        i += 1
        if i > len(target):
            target = xi.word(2 * len(target) + 8)
    return verts[: horizon + 1]


def necklace_words(alphabet, max_len, step, start, close,
                   primitive_only=False):
    """Yield (word, state, primitive) for each necklace of length
    1..max_len over `alphabet` (in increasing order) whose prefixes all
    pass `step` and which passes close(word, state).

    Fredricksen-Maiorana / Ruskey-Savage-Wang, with an explicit stack: a
    prenecklace a[1..t-1] of period p extends only by letters c >= a[t-p],
    to period p if c = a[t-p] and t otherwise; it is a necklace (its own
    least rotation) iff p divides t, and a Lyndon word iff p = t.
    step(state, letter) returns the extended prefix's state, or None to
    prune it with all its extensions.  Every prefix of a necklace is a
    prenecklace, so a prune that every prefix of an admissible necklace
    passes loses nothing.
    """
    index = {c: i for i, c in enumerate(alphabet)}
    stack = [("", start, 1)]
    while stack:
        w, state, p = stack.pop()
        n = len(w)
        if n and n % p == 0 and (p == n or not primitive_only) \
                and close(w, state):
            yield w, state, p == n
        ref = w[n - p] if n else alphabet[0]
        for c in alphabet[index[ref]:] if n < max_len else ():
            nxt = step(state, c)
            if nxt is not None:
                stack.append((w + c, nxt, p if n and c == ref else n + 1))


def necklaces(max_len, rank=2, primitive_only=True):
    """All cyclically reduced cyclic words (canonical least rotation) of
    length <= max_len, i.e. conjugacy classes of F_rank.  Oriented: w and
    w^-1 are distinct unless cyclically equal.

    Complete: such a least rotation is a necklace and its prefixes are
    reduced prenecklaces, so necklace_words, pruning unreduced prefixes,
    misses none; the closing check refuses a last letter inverse to the
    first.
    """
    inv = {c: inv_letter(c) for c in letters(rank)}
    return sorted((w for w, _, _ in necklace_words(
        sorted(inv), max_len, lambda last, c: None if c == inv.get(last) else c,
        None, lambda w, last: last != inv[w[0]], primitive_only)),
        key=lambda w: (len(w), w))


def brute_force_translation_length(w, search_radius):
    """min over tree vertices x with |x| <= search_radius of d(x, w x)."""
    best = len(w)
    for x in ball_words(search_radius, rank=_infer_rank(w)):
        best = min(best, len(mul(mul(inverse(x), w), x)))
    return best


def _infer_rank(w):
    hi = max((ALPHABET.index(c.lower()) for c in w), default=0)
    return max(2, hi + 1)
