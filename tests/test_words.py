from itertools import cycle, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2wiggle.certify import DCParams
from sl2wiggle.errors import ParseError
from sl2wiggle.words import (
    Word,
    commutator,
    cyclic_reduce,
    double_commutator,
    double_commutator_cyclic,
    parse_word,
)

import words_reference as ref
from conftest import pairs_word, syllables, syllables_word, words


def syllables_of(w: Word) -> list[tuple[str, int]]:
    return [(g, e) for pair in w.pairs for g, e in zip("xy", pair) if e]


def swap_generators(w: Word) -> Word:
    """Exchange x and y in every syllable."""
    return Word.from_exps([0, *(e for pair in w.pairs for e in pair)])


class TestParse:
    def test_literal(self):
        assert parse_word("x^3 y^-2") == Word(((3, -2),))

    def test_commutator_bracket(self):
        assert parse_word("[x,y]") == Word(((-1, -1), (1, 1)))

    def test_free_cancellation(self):
        assert parse_word("x y y^-1 x^-1") == Word()

    def test_zero_power_elides(self):
        assert parse_word("x^0") == Word()
        assert parse_word("x^0 y") == Word(((0, 1),))

    def test_parens_and_powers(self):
        assert parse_word("(x y)^2") == parse_word("x y x y")
        assert parse_word("(x y)^-1") == parse_word("y^-1 x^-1")

    def test_nested_brackets(self):
        assert parse_word("[[x,y],[x^2,y^3]]") == double_commutator(1, 1, 2, 3)

    def test_whitespace_insignificant(self):
        assert parse_word("x^2y^3") == parse_word("  x^2   y^3 ")

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 1),
            ("x^", 3),
            ("x^-", 4),
            ("(x", 3),
            ("[x y]", 5),
            ("z", 1),
            ("x)", 2),
        ],
    )
    def test_errors_report_position(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_word(text)
        assert exc.value.position == position

    def test_huge_generator_power_is_fine(self):
        w = parse_word("x^123456789012")
        assert w == Word(((123456789012, 0),))

    def test_huge_compound_power_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_word("(x y)^2000000")
        assert "too large" in str(exc.value)

    def test_long_literal_word(self):
        # 20,000 syllables, reduced once: reducing the product at every
        # factor made this quadratic
        w = parse_word(" ".join(["x y"] * 10_000))
        assert len(w) == 20_000
        assert w == parse_word("(x y)^10000")

    @given(words)
    def test_str_round_trip(self, w):
        if w != Word():
            assert parse_word(str(w)) == w

    @given(words, st.data())
    def test_free_reduction_confluent(self, w, data):
        # insert cancelling syllable pairs anywhere; the reduced word is unchanged
        syls = syllables_of(w)
        for _ in range(data.draw(st.integers(0, 3))):
            pos = data.draw(st.integers(0, len(syls)))
            g = data.draw(st.sampled_from("xy"))
            e = data.draw(st.integers(1, 3))
            syls[pos:pos] = [(g, e), (g, -e)]
        assert syllables_word(syls) == w


class TestCyclicReduce:
    def test_power(self):
        assert cyclic_reduce(Word.from_exps((5,))) == ((5, 0),)
        assert cyclic_reduce(Word.from_exps((0, -2))) == ((0, -2),)

    def test_trivial(self):
        assert cyclic_reduce(Word()) == ()
        assert cyclic_reduce(parse_word("x y x^-1 y^-1 y x y^-1 x^-1")) == ()

    def test_conjugate_of_generator(self):
        assert cyclic_reduce(parse_word("y x^3 y^-1")) == ((3, 0),)
        assert cyclic_reduce(parse_word("x^2 y^4 x^-2")) == ((0, 4),)

    def test_double_commutator_standard_form(self):
        # [[x,y^2],[x^3,y^4]] reduces to the standard 7-run representative
        k, l, m, n = 1, 2, 3, 4
        pairs = cyclic_reduce(double_commutator(k, l, m, n))
        assert len(pairs) == 7
        assert pairs == cyclic_reduce(pairs_word(double_commutator_cyclic(k, l, m, n)))

    def test_all_runs_nonzero(self):
        pairs = cyclic_reduce(parse_word("x y x^-1 y x y^2"))
        assert pairs == ((-1, 1), (1, 2), (1, 1))
        assert all(a and b for a, b in pairs)

    @given(words, words)
    @settings(max_examples=150)
    def test_conjugation_invariant(self, w, v):
        assert cyclic_reduce(v * w * v.inverse()) == cyclic_reduce(w)

    @given(words)
    def test_result_is_conjugate_to_input(self, w):
        pairs = cyclic_reduce(w)
        assert cyclic_reduce(pairs_word(pairs)) == pairs


class TestDoubleCommutator:
    def test_syllable_length(self):
        # expansion of [[x,y],[x^2,y^3]] merges exactly one adjacent x-run
        w = double_commutator(1, 1, 2, 3)
        assert len(w) == 15
        assert w == parse_word("[[x,y],[x^2,y^3]]")

    def test_trivial_when_equal(self):
        assert double_commutator(1, 1, 1, 1) == Word()

    def test_trivial_when_zero(self):
        assert double_commutator(0, 5, 2, 3) == Word()

    def test_trivial_iff_condition(self):
        for k in range(-2, 3):
            for l in range(-2, 3):
                for m in range(-2, 3):
                    for n in range(-2, 3):
                        expected = (
                            k == 0 or l == 0 or m == 0 or n == 0 or (k, l) == (m, n)
                        )
                        assert (double_commutator(k, l, m, n) == Word()) == expected

    def test_cyclic_representative_is_conjugate(self):
        for params in [(1, 1, 2, 3), (2, 1, 1, 3), (1, 1, -1, -1), (1, 1, 2, 1)]:
            w = double_commutator(*params)
            v = pairs_word(double_commutator_cyclic(*params))
            assert cyclic_reduce(w) == cyclic_reduce(v)

    def test_cyclic_word_trivial_iff_params_trivial(self):
        # the cyclic form is built without the word, and is trivial exactly when it is
        for params in product(range(-4, 5), repeat=4):
            w = double_commutator(*params)
            v = double_commutator_cyclic(*params)
            trivial = DCParams(*params).is_trivial()
            assert (v == ()) == trivial == (w == Word())
            assert cyclic_reduce(w) == cyclic_reduce(pairs_word(v))

    def test_cyclic_pairs_equal_the_cyclic_words(self):
        # the pairs of c w c^-1 for c = x^m y^n, the word's last x-run and
        # y-run, not cyclic_reduce's rotation, which would change gamma;
        # zeros included
        large = [(10**6, -3, 10**6, 5), (-(10**7), 10**9, 2, 10**9), (10**12, 1, -(10**12), 1)]
        for params in [*product(range(-4, 5), repeat=4), *large]:
            p = DCParams(*params)
            c = Word.from_exps((p.m,)) * Word.from_exps((0, p.n))
            assert p.cyclic_pairs() == (c * p.word() * c.inverse()).pairs

    def test_pairs_of_cyclic_form(self):
        assert double_commutator_cyclic(1, 2, 3, 4) == (
            (3, 2),
            (-1, 2),
            (1, -4),
            (-3, 4),
            (2, -2),
            (1, 2),
            (-3, -4),
        )


class TestAgainstReference:
    """Word, which reduces exponents alternating from x, against the
    syllable reduction and pair grouping of words_reference."""

    @given(st.lists(st.integers(-3, 3), max_size=16))
    def test_from_exps(self, exps):
        w = Word.from_exps(exps)
        assert w.pairs == ref.pairs(ref.reduce(zip(cycle("xy"), exps)))

    @given(st.lists(syllables, max_size=8), st.lists(syllables, max_size=8), st.integers(-3, 3))
    @settings(max_examples=300)
    def test_operations(self, s, t, n):
        u, v = ref.reduce(s), ref.reduce(t)
        w, x = syllables_word(s), syllables_word(t)
        assert w.pairs == ref.pairs(u)
        assert (w * x).pairs == ref.pairs(ref.reduce(u + v))
        assert w.inverse().pairs == ref.pairs(ref.inverse(u))
        assert (w**n).pairs == ref.pairs(ref.power(u, n))
        assert str(w) == ref.to_str(u)
        assert len(w) == len(u)
        assert cyclic_reduce(w) == ref.cyclic_reduce(u)
        assert commutator(w, x).pairs == ref.pairs(ref.commutator(u, v))

    def test_double_commutators(self):
        # all of [-4, 4]^4, zeros included
        for params in product(range(-4, 5), repeat=4):
            assert double_commutator(*params).pairs == ref.pairs(ref.double_commutator(*params))
            assert double_commutator_cyclic(*params) == ref.double_commutator_cyclic(*params)


class TestSwap:
    def test_definition(self):
        assert swap_generators(Word(((2, -1),))) == Word(((0, 2), (-1, 0)))

    @given(words)
    def test_involution(self, w):
        assert swap_generators(swap_generators(w)) == w

    def test_swapped_double_commutator_conjugacy(self):
        # swapping generators in [[x,y],[x^2,y]] gives a conjugate of [[x,y],[x,y^2]]
        swapped = swap_generators(double_commutator(1, 1, 2, 1))
        assert cyclic_reduce(swapped) == cyclic_reduce(double_commutator(1, 1, 1, 2))

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=60)
    def test_swap_parameter_rule(self, k, l, m, n):
        swapped = swap_generators(double_commutator(k, l, m, n))
        assert cyclic_reduce(swapped) == cyclic_reduce(double_commutator(l, k, n, m))
