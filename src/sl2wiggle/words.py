"""Words in the free group on two generators x and y.

A Word is a freely reduced syllable sequence; cyclic reduction produces a
canonical conjugacy-class representative.  The grammar accepted by
parse_word:

    word   := factor+
    factor := atom power?
    atom   := 'x' | 'y' | '(' word ')' | '[' word ',' word ']'
    power  := '^' '-'? digit+

with whitespace insignificant between factors and '[u,v]' denoting
u^-1 v^-1 u v.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import cycle
from typing import Iterable, NamedTuple, Sequence

from .errors import ParseError
from .exact.polycore import power


class Gen(Enum):
    X = "x"
    Y = "y"

    def other(self) -> "Gen":
        return Gen.Y if self is Gen.X else Gen.X


class Syllable(NamedTuple):
    gen: Gen
    exp: int


def _reduce(syllables: Iterable[tuple[Gen, int]]) -> list[tuple[Gen, int]]:
    """Free reduction of (generator, exponent) pairs, as plain tuples."""
    stack: list[tuple[Gen, int]] = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if stack and stack[-1][0] is gen:
            merged = stack.pop()[1] + exp
            if merged:
                stack.append((gen, merged))
        else:
            stack.append((gen, exp))
    return stack


@dataclass(frozen=True)
class Word:
    """Freely reduced word; the empty tuple is the identity."""

    syllables: tuple[Syllable, ...] = ()

    @classmethod
    def from_syllables(cls, syllables: Iterable[tuple[Gen, int]]) -> "Word":
        return cls(tuple(Syllable(gen, exp) for gen, exp in _reduce(syllables)))

    @classmethod
    def identity(cls) -> "Word":
        return cls()

    @classmethod
    def x_pow(cls, e: int) -> "Word":
        return cls((Syllable(Gen.X, e),) if e else ())

    @classmethod
    def y_pow(cls, e: int) -> "Word":
        return cls((Syllable(Gen.Y, e),) if e else ())

    def __len__(self) -> int:
        return len(self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        return Word.from_syllables(self.syllables + other.syllables)

    def inverse(self) -> "Word":
        return Word(tuple(Syllable(s.gen, -s.exp) for s in reversed(self.syllables)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, Word.identity())

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join(
            s.gen.value if s.exp == 1 else f"{s.gen.value}^{s.exp}"
            for s in self.syllables
        )

    def __repr__(self) -> str:
        return f"Word({self})"


def commutator(u: Word, v: Word) -> Word:
    return u.inverse() * v.inverse() * u * v


def swap_generators(w: Word) -> Word:
    """Exchange x and y in every syllable."""
    return Word(tuple(Syllable(s.gen.other(), s.exp) for s in w.syllables))


def double_commutator(k: int, l: int, m: int, n: int) -> Word:
    """The freely reduced word [[x^k, y^l], [x^m, y^n]]."""
    inner1 = commutator(Word.x_pow(k), Word.y_pow(l))
    inner2 = commutator(Word.x_pow(m), Word.y_pow(n))
    return commutator(inner1, inner2)


def double_commutator_cyclic(k: int, l: int, m: int, n: int) -> tuple[tuple[int, int], ...]:
    """The run pairs, zeros allowed, of the cyclic conjugate of
    [[x^k, y^l], [x^m, y^n]] with its last x-run and y-run rotated to the
    front, reduced on plain tuples; () exactly when the word is trivial:

        x^m y^(n-l) x^-k y^l x^k y^-n x^-m y^n x^(m-k) y^-l x^k y^l x^-m y^-n
    """
    exps = (m, n - l, -k, l, k, -n, -m, n, m - k, -l, k, l, -m, -n)
    return _pairs(_reduce(zip(cycle((Gen.X, Gen.Y)), exps)))


def word_to_pairs(w: Word) -> tuple[tuple[int, int], ...]:
    """Group syllables into (x-exponent, y-exponent) pairs, zeros allowed."""
    return _pairs(w.syllables)


def _pairs(s: Sequence[tuple[Gen, int]]) -> tuple[tuple[int, int], ...]:
    """word_to_pairs on (generator, exponent) pairs."""
    pairs: list[tuple[int, int]] = []
    i = 0
    while i < len(s):
        if s[i][0] is Gen.X:
            a = s[i][1]
            i += 1
            b = 0
            if i < len(s) and s[i][0] is Gen.Y:
                b = s[i][1]
                i += 1
        else:
            a = 0
            b = s[i][1]
            i += 1
        pairs.append((a, b))
    return tuple(pairs)


# ----------------------------------------------------------------------
# cyclic reduction


def cyclic_reduce(w: Word) -> tuple[tuple[int, int], ...]:
    """The run pairs of w's cyclically reduced conjugate, in canonical
    rotation: () for the trivial word, ((e, 0),) or ((0, e),) for a
    generator power, and otherwise the lexicographically least rotation
    that begins with an x-run, all entries nonzero.  Equal results decide
    conjugacy.  Like double_commutator_cyclic, it returns run pairs, not a
    Word."""
    syl = list(w.syllables)
    while len(syl) >= 2 and syl[0].gen is syl[-1].gen:
        merged = syl[-1].exp + syl[0].exp
        gen = syl[0].gen
        syl = syl[1:-1]
        if merged:
            syl.append(Syllable(gen, merged))
    if syl and syl[0].gen is Gen.Y:
        syl = syl[1:] + syl[:1]
    pairs = _pairs(syl)
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
        word = Word.identity()
        while True:
            word = word * self.parse_factor()
            self.skip_ws()
            if self.peek() not in ("x", "y", "(", "["):
                return word

    def parse_factor(self) -> Word:
        atom = self.parse_atom()
        self.skip_ws()
        if self.peek() == "^":
            power_pos = self.pos
            self.pos += 1
            exponent = self.parse_exponent()
            # a power of a compound atom expands syllable by syllable
            if len(atom) > 1 and abs(exponent) * len(atom) > 1_000_000:
                self.pos = power_pos
                self.fail("exponent too large to expand")
            return atom ** exponent
        return atom

    def parse_atom(self) -> Word:
        self.skip_ws()
        ch = self.peek()
        if ch == "x":
            self.pos += 1
            return Word.x_pow(1)
        if ch == "y":
            self.pos += 1
            return Word.y_pow(1)
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
