"""Reference free-group words as (generator, exponent) syllables.

Free reduction on a stack of syllables and the grouping of syllables into
(x-exponent, y-exponent) run pairs: an implementation independent of
`sl2wiggle.words.Word`, which reduces exponents alternating from x, for
the differential tests in test_words.py.  A syllable is ("x", e) or
("y", e), e nonzero.
"""

Syllables = list[tuple[str, int]]


def reduce(syllables) -> Syllables:
    """Free reduction: drop zero exponents, merge equal neighbours."""
    stack: Syllables = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            merged = stack.pop()[1] + exp
            if merged:
                stack.append((gen, merged))
        else:
            stack.append((gen, exp))
    return stack


def pairs(s: Syllables) -> tuple[tuple[int, int], ...]:
    """Group syllables into (x-exponent, y-exponent) pairs, zeros allowed."""
    out = []
    i = 0
    while i < len(s):
        if s[i][0] == "x":
            a = s[i][1]
            i += 1
            b = 0
            if i < len(s) and s[i][0] == "y":
                b = s[i][1]
                i += 1
        else:
            a = 0
            b = s[i][1]
            i += 1
        out.append((a, b))
    return tuple(out)


def inverse(s: Syllables) -> Syllables:
    return [(gen, -exp) for gen, exp in reversed(s)]


def power(s: Syllables, n: int) -> Syllables:
    return reduce((inverse(s) if n < 0 else s) * abs(n))


def commutator(u: Syllables, v: Syllables) -> Syllables:
    return reduce(inverse(u) + inverse(v) + u + v)


def to_str(s: Syllables) -> str:
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in s) or "1"


def cyclic_reduce(s: Syllables) -> tuple[tuple[int, int], ...]:
    """Merge the last syllable into the first while they share a generator,
    start with an x-run, and take the least rotation of the pairs."""
    syl = list(s)
    while len(syl) >= 2 and syl[0][0] == syl[-1][0]:
        merged = syl[-1][1] + syl[0][1]
        gen = syl[0][0]
        syl = syl[1:-1]
        if merged:
            syl.append((gen, merged))
    if syl and syl[0][0] == "y":
        syl = syl[1:] + syl[:1]
    p = pairs(syl)
    return min((p[i:] + p[:i] for i in range(len(p))), default=())


def double_commutator(k: int, l: int, m: int, n: int) -> Syllables:
    """[[x^k, y^l], [x^m, y^n]], built from its definition."""
    return commutator(
        commutator(reduce([("x", k)]), reduce([("y", l)])),
        commutator(reduce([("x", m)]), reduce([("y", n)])),
    )


def double_commutator_cyclic(k: int, l: int, m: int, n: int) -> tuple[tuple[int, int], ...]:
    """The pairs of c w c^-1 for w = [[x^k, y^l], [x^m, y^n]], c = x^m y^n."""
    c = [("x", m), ("y", n)]
    return pairs(reduce(c + double_commutator(k, l, m, n) + inverse(c)))
