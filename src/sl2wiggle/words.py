"""Words in the free group on two generators x and y.

A Word is freely reduced and held as its run pairs ((a1, b1), (a2, b2),
...), the word x^a1 y^b1 x^a2 y^b2 ...: every exponent is nonzero except
that a1 is 0 for a word that begins with a y-run and the last b is 0 for
one that ends with an x-run; () is the identity.  Every consumer reads
these pairs, one transfer matrix per nonzero entry.  Cyclic reduction
produces a canonical conjugacy-class representative.  The grammar
accepted by parse_word:

    word   := factor+
    factor := atom power?
    atom   := 'x' | 'y' | '(' word ')' | '[' word ',' word ']'
    power  := '^' '-'? digit+

with whitespace insignificant between factors and '[u,v]' denoting
u^-1 v^-1 u v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ParseError
from .exact.polycore import power

Pairs = tuple[tuple[int, int], ...]

# the most syllables the parser expands a power into, and cli's most grid tuples
EXPANSION_CAP = 1_000_000


def _flat(pairs: Pairs) -> list[int]:
    """The exponents of run pairs, alternating from x."""
    return [e for pair in pairs for e in pair]


@dataclass(frozen=True)
class Word:
    """Freely reduced word as its run pairs; () is the identity."""

    pairs: Pairs = ()

    @classmethod
    def from_exps(cls, exps: Iterable[int]) -> "Word":
        """The freely reduced word x^e0 y^e1 x^e2 y^e3 ...: a zero exponent
        drops out and merges its two neighbours."""
        stack: list[int] = []  # alternating from x; only stack[0] may be 0
        for i, e in enumerate(exps):
            if not e:
                continue
            if not stack and i % 2:
                stack.append(0)
            if (len(stack) + i) % 2:  # the top has e's generator
                stack[-1] += e
                if not stack[-1]:
                    stack.pop()
            else:
                stack.append(e)
        if stack == [0]:
            stack.pop()
        if len(stack) % 2:
            stack.append(0)
        return cls(tuple(zip(stack[::2], stack[1::2])))

    def __len__(self) -> int:
        """The number of syllables, nonzero exponents."""
        return sum(bool(a) + bool(b) for a, b in self.pairs)

    def __mul__(self, other: "Word") -> "Word":
        return Word.from_exps(_flat(self.pairs + other.pairs))

    def inverse(self) -> "Word":
        return Word.from_exps([0, *(-e for e in reversed(_flat(self.pairs)))])

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, Word())

    def __str__(self) -> str:
        return " ".join(
            g if e == 1 else f"{g}^{e}" for pair in self.pairs for g, e in zip("xy", pair) if e
        ) or "1"

    def __repr__(self) -> str:
        return f"Word({self})"


def commutator(u: Word, v: Word) -> Word:
    return u.inverse() * v.inverse() * u * v


def _dc_exps(k: int, l: int, m: int, n: int) -> tuple[int, ...]:
    """[[x^k, y^l], [x^m, y^n]] = y^-l x^-k y^l x^k y^-n x^-m y^n x^(m-k)
    y^-l x^k y^l x^-m y^-n x^m y^n as exponents alternating from x."""
    return (0, -l, -k, l, k, -n, -m, n, m - k, -l, k, l, -m, -n, m, n)


def double_commutator(k: int, l: int, m: int, n: int) -> Word:
    """The freely reduced word [[x^k, y^l], [x^m, y^n]]."""
    return Word.from_exps(_dc_exps(k, l, m, n))


def double_commutator_cyclic(k: int, l: int, m: int, n: int) -> Pairs:
    """The run pairs, zeros allowed, of the cyclic conjugate of
    [[x^k, y^l], [x^m, y^n]] with its last x-run and y-run rotated to the
    front; () exactly when the word is trivial:

        x^m y^(n-l) x^-k y^l x^k y^-n x^-m y^n x^(m-k) y^-l x^k y^l x^-m y^-n
    """
    exps = _dc_exps(k, l, m, n)
    return Word.from_exps(exps[-2:] + exps[:-2]).pairs


# ----------------------------------------------------------------------
# cyclic reduction


def cyclic_reduce(w: Word) -> Pairs:
    """The run pairs of w's cyclically reduced conjugate, in canonical
    rotation: () for the trivial word, ((e, 0),) or ((0, e),) for a
    generator power, and otherwise the lexicographically least rotation
    that begins with an x-run, all entries nonzero.  Equal results decide
    conjugacy.  Like double_commutator_cyclic, it returns run pairs, not a
    Word."""
    pairs = w.pairs
    # while the first and last syllables share a generator, conjugate by
    # the last pair, which merges them
    while len(pairs) > 1 and (pairs[0][0] == 0) != (pairs[-1][1] == 0):
        pairs = Word.from_exps(_flat(pairs[-1:] + pairs[:-1])).pairs
    if len(pairs) > 1 and pairs[0][0] == 0:
        # a leading y-run and a trailing x-run: move the y-run to the end
        pairs = pairs[1:-1] + ((pairs[-1][0], pairs[0][1]),)
    return min((pairs[i:] + pairs[:i] for i in range(len(pairs))), default=())


# ----------------------------------------------------------------------
# parsing


def parse_word(text: str) -> Word:
    """Parse the word grammar; raises ParseError with a 1-based position."""
    parser = _Parser(text)
    word = parser.parse_word()
    parser.skip_ws()
    if not parser.at_end():
        parser.fail("unexpected trailing input")
    return word


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str):
        raise ParseError(message, self.pos + 1)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def parse_word(self) -> Word:
        self.skip_ws()
        if self.peek() not in ("x", "y", "(", "["):
            self.fail("expected 'x', 'y', '(' or '['")
        # the factors' exponents, reduced once at the end: free reduction is
        # confluent, and reducing the product at every factor is quadratic
        exps: list[int] = []
        while True:
            exps += _flat(self.parse_factor().pairs)
            self.skip_ws()
            if self.peek() not in ("x", "y", "(", "["):
                return Word.from_exps(exps)

    def parse_factor(self) -> Word:
        atom = self.parse_atom()
        self.skip_ws()
        if self.peek() == "^":
            power_pos = self.pos
            self.pos += 1
            exponent = self.parse_exponent()
            # a power of a compound atom expands syllable by syllable
            if len(atom) > 1 and abs(exponent) * len(atom) > EXPANSION_CAP:
                self.pos = power_pos
                self.fail("exponent too large to expand")
            return atom ** exponent
        return atom

    def parse_atom(self) -> Word:
        self.skip_ws()
        ch = self.peek()
        if ch == "x":
            self.pos += 1
            return Word(((1, 0),))
        if ch == "y":
            self.pos += 1
            return Word(((0, 1),))
        if ch == "(":
            self.pos += 1
            inner = self.parse_word()
            self.skip_ws()
            self.expect(")")
            return inner
        if ch == "[":
            self.pos += 1
            u = self.parse_word()
            self.skip_ws()
            self.expect(",")
            v = self.parse_word()
            self.skip_ws()
            self.expect("]")
            return commutator(u, v)
        self.fail("expected 'x', 'y', '(' or '['")

    def parse_exponent(self) -> int:
        self.skip_ws()
        sign = 1
        if self.peek() == "-":
            sign = -1
            self.pos += 1
        if not self.peek().isdigit():
            self.fail("expected digits after '^'")
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        return sign * int(self.text[start : self.pos])
