import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from sl2wiggle.exact.laurent import LaurentPoly
from sl2wiggle.exact.mat2 import Mat2, identity_q, mat2_q
from sl2wiggle.words import Word

nonzero_exponents = st.integers(min_value=-4, max_value=4).filter(lambda e: e != 0)

syllables = st.tuples(st.sampled_from("xy"), nonzero_exponents)


def syllables_word(syls) -> Word:
    """The freely reduced word of (generator, exponent) syllables such as
    ("x", 2), ("y", -1): a zero fills the other generator's slot between
    two syllables of one generator, so that they merge."""
    exps = []
    for gen, e in syls:
        if len(exps) % 2 != "xy".index(gen):
            exps.append(0)
        exps.append(e)
    return Word.from_exps(exps)


words = st.lists(syllables, max_size=8).map(syllables_word)

nonzero_rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=8
).filter(lambda q: q != 0)

small_scalars = st.integers(min_value=-6, max_value=6)

laurents = st.dictionaries(
    keys=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    values=small_scalars,
    max_size=5,
).map(LaurentPoly)

nonzero_laurents = laurents.filter(bool)


def pairs_word(pairs) -> Word:
    """The word x^a1 y^b1 x^a2 y^b2 ... of run pairs such as cyclic_reduce's."""
    return Word.from_exps(e for pair in pairs for e in pair)


def conjugate(x: Mat2, g: Mat2) -> Mat2:
    """x^g = g^-1 x g for determinant-1 g."""
    return g.inv_det1() * x * g


def random_sl2(rng: random.Random, size: int = 4, steps: int = 3) -> Mat2:
    """Random determinantated-1 rational matrix as a product of elementary ones."""
    g = identity_q()
    for _ in range(steps):
        g = g * mat2_q(1, Fraction(rng.randint(-size, size), rng.randint(1, 3)), 0, 1)
        g = g * mat2_q(1, 0, Fraction(rng.randint(-size, size), rng.randint(1, 3)), 1)
    return g


def random_word(rng: random.Random, max_syllables: int = 6, max_exp: int = 3) -> Word:
    out = []
    for _ in range(rng.randint(0, max_syllables)):
        e = 0
        while e == 0:
            e = rng.randint(-max_exp, max_exp)
        out.append((rng.choice("xy"), e))
    return syllables_word(out)


def random_commutator_subgroup_word(rng: random.Random) -> Word:
    """Random element of the commutator subgroup: a product of commutators."""
    w = Word()
    for _ in range(rng.randint(1, 2)):
        u = random_word(rng, max_syllables=2, max_exp=2)
        v = random_word(rng, max_syllables=2, max_exp=2)
        w = w * (u.inverse() * v.inverse() * u * v)
    return w


def random_nonzero_fraction(rng: random.Random, bound: int = 9) -> Fraction:
    return Fraction(rng.randint(1, bound), rng.randint(1, bound)) * rng.choice([1, -1])


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
