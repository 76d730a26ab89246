import copy
import gc
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ceviangeo.field import (
    MAX_NESTING,
    DigitLimitExceeded,
    ExpressionError,
    FieldElement,
    NegativeRadicand,
    NotASquare,
    TowerDepthExceeded,
    TowerMismatch,
    canonical_tower,
    factorize,
    fe,
    format_element,
    parse_element,
    parse_triple,
    sqrt_extending,
    squarefree_decompose,
)

R2 = FieldElement.root(2)
R3 = FieldElement.root(3)
R6 = FieldElement.root(6)


class TestArithmetic:
    def test_conjugate_product(self):
        assert (1 + R2) * (1 - R2) == -1

    def test_inverse_of_root(self):
        assert R2.inverse() == R2 / 2

    def test_depth1_norm_product(self):
        # 144 - 108 by hand
        assert (12 + 6 * R3) * (12 - 6 * R3) == 36

    def test_mixed_tower_product(self):
        assert R2 * R3 == R6
        assert R6 * R2 == 2 * R3

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            fe(1) / fe(0)

    def test_division_by_zero_in_an_expression(self):
        with pytest.raises(ExpressionError, match="division by zero"):
            parse_element("1/(2-2)")

    def test_tower_mismatch(self):
        # past depth 2 it is the exported TowerDepthExceeded, so no caller
        # converts it
        with pytest.raises(TowerDepthExceeded):
            (R2 + R3) * FieldElement.root(5)
        # a radicand the target tower lacks is a plain mismatch
        with pytest.raises(TowerMismatch) as info:
            FieldElement.root(2).in_tower((3,))
        assert not isinstance(info.value, TowerDepthExceeded)

    def test_depth2_inverse(self):
        x = 1 + R2 + R3 + R6
        assert x * x.inverse() == 1

    def test_power(self):
        x = 1 + R2
        assert x ** 5 == x * x * x * x * x
        assert x ** -2 == (x * x).inverse()

    def test_power_skips_the_unused_last_square(self, monkeypatch):
        mul, calls = FieldElement.__mul__, []

        def counting(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(FieldElement, "__mul__", counting)
        x = 1 + R2
        for n in range(1, 10):
            calls.clear()
            x ** n
            # one product per set bit and one square per bit after the first
            assert len(calls) == bin(n).count("1") + n.bit_length() - 1


class TestSign:
    def test_root_two_below_three_halves(self):
        assert (1 - R2).sign() == -1

    def test_root_three_below_two(self):
        assert (R3 - 2).sign() == -1

    def test_large_comparison(self):
        # 2483^2 * 2 = 12331778 > 3488^2 = 12166144
        assert (fe("2483/32") * R2 - 109).sign() == 1

    def test_zero(self):
        assert (R2 - R2).sign() == 0

    def test_depth2_sign(self):
        # sqrt(2)+sqrt(3) vs sqrt(6): (sqrt2+sqrt3)^2 = 5+2sqrt6 > 6
        assert (R2 + R3 - R6).sign() == 1
        assert (R6 - R2 - R3).sign() == -1

    def test_sign_multiplicative_random(self):
        rng = random.Random(5)
        for _ in range(300):
            tower = rng.choice(((), (2,), (3,), (2, 3), (5, 7)))
            a = _random_element(rng, towers=(tower,))
            b = _random_element(rng, towers=(tower,))
            assert (a * b).sign() == a.sign() * b.sign()

    def test_sign_against_high_precision(self):
        import mpmath

        mpmath.mp.dps = 60
        rng = random.Random(17)
        for _ in range(1000):
            a = _random_element(rng)
            value = _mp_value(a, mpmath)
            s = a.sign()
            if s == 0:
                assert abs(value) < mpmath.mpf("1e-40")
            else:
                assert abs(value) > mpmath.mpf("1e-40")
                assert (value > 0) == (s > 0)


def _random_element(rng, towers=((), (2,), (3,), (2, 3), (2, 5), (3, 7))):
    tower = rng.choice(towers)
    coeffs = [
        Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(1 << len(tower))
    ]
    return FieldElement(tower, coeffs)


def _mp_value(a, mpmath):
    from ceviangeo.field import _directions

    m = a.minimal()
    total = mpmath.mpf(m.coeffs[0].numerator) / m.coeffs[0].denominator
    for rad, (i, mult) in _directions(m.tower).items():
        c = m.coeffs[i]
        total += mpmath.mpf(c.numerator) / c.denominator * mult * mpmath.sqrt(rad)
    return total


class TestSqrt:
    def test_rational_square(self):
        assert fe("9/4").sqrt() == fe("3/2")

    def test_rational_nonsquare_reports_radicand(self):
        with pytest.raises(NotASquare) as err:
            fe(2).sqrt()
        assert err.value.radicand == 2

    def test_depth1_square(self):
        assert (3 + 2 * R2).sqrt() == 1 + R2

    def test_sqrt_in_depth2(self):
        a = (5 + 2 * R6).in_tower((2, 3))
        assert a.sqrt() == R2 + R3

    def test_sqrt_of_embedded_integer(self):
        assert fe(12).in_tower((2, 3)).sqrt() == 2 * R3

    def test_negative(self):
        with pytest.raises(NegativeRadicand):
            (-fe(4)).sqrt()

    def test_no_quadratic_extension_helps(self):
        with pytest.raises(NotASquare) as err:
            (7 + R2).in_tower((2, 3)).sqrt()
        assert err.value.radicand is None

    def test_root_of_a_square_stays_rational(self):
        for n, want in ((0, 0), (4, 2)):
            r = FieldElement.root(n)
            assert r == want and r.tower == ()
        # 12 = 2^2 * 3: the square part leaves the root
        assert FieldElement.root(12) == 2 * R3 and FieldElement.root(12).tower == (3,)

    def test_sqrt_extending(self):
        assert sqrt_extending(fe(8)) == 2 * R2
        assert sqrt_extending(5 + 2 * R6) == R2 + R3

    def test_sqrt_squares_roundtrip_random(self):
        rng = random.Random(3)
        count = 0
        while count < 60:
            a = _random_element(rng)
            if a.is_zero():
                continue
            square = a * a
            root = square.sqrt()
            assert root * root == square
            assert root.sign() >= 0
            count += 1


class TestTower:
    def test_canonical_pair(self):
        assert canonical_tower([3, 6]) == (2, 3)
        assert canonical_tower([2, 3]) == (2, 3)
        assert canonical_tower([6]) == (6,)
        assert canonical_tower([]) == ()

    def test_closed_trio(self):
        assert canonical_tower([2, 3, 6]) == (2, 3)
        with pytest.raises(TowerMismatch):
            canonical_tower([2, 3, 5])

    @pytest.mark.parametrize("tower, error", [
        ((4,), ValueError),  # not squarefree: sqrt(4) is rational
        ((-1,), ValueError),  # not > 1: no real sign for sqrt(-1)
        ((1,), ValueError),
        ((-2,), ValueError),
        ((2, 2), ValueError),  # a repeated radicand
        ((2, 3, 6), TowerMismatch),  # depth 3, though the field has depth 2
        ((2, 3, 5), TowerMismatch),
    ])
    def test_tower_that_is_not_a_field_is_refused(self, tower, error):
        with pytest.raises(error):
            FieldElement(tower, (0, 1) + (0,) * ((1 << len(tower)) - 2))
        with pytest.raises(error):
            fe(2).in_tower(tower)

    @pytest.mark.parametrize("tower", [(), (2,), (2, 3), (6, 15), (2, 6), (3, 2)])
    def test_valid_towers_accepted_canonical_or_not(self, tower):
        x = FieldElement(tower, (1,) + (0,) * ((1 << len(tower)) - 1))
        assert x == 1 and x.tower == tower
        y = fe(2).in_tower(tower)
        assert y == 2 and y.tower == tower

    def test_equality_across_representations(self):
        assert R2 * R3 == R6
        assert hash(R2 * R3) == hash(R6)

    def test_hash_matches_int(self):
        assert hash(fe(5)) == hash(5)
        assert fe(5) == 5

    def test_minimal_cache_makes_no_reference_cycle(self):
        # an element that is its own minimal form must not hold itself, or
        # each one becomes garbage that only the cyclic collector frees
        for x in (fe(5), R2 + 1, R2 * R3 + R2):
            assert x.minimal() is x and x.minimal() is x
            assert all(ref is not x for ref in gc.get_referents(x))
        wide = (R2 + 1).in_tower((2, 3))
        m = wide.minimal()
        assert m.tower == (2,) and m.minimal() is m


class TestSerialization:
    def test_expression_roundtrip(self):
        samples = [
            fe("1/2"),
            1 - fe("2/3") * R2,
            R6 - R2 + 7,
            fe(0),
            -R3 / 5,
            fe("169/8") - fe("2483/32") * R2,
        ]
        for x in samples:
            assert parse_element(format_element(x)) == x

    def test_parse_errors(self):
        from ceviangeo.field import ExpressionError

        # int() reads the digits of any script, the grammar only 0-9
        for bad in ("1+", "sqrt(x)", "(1+2", "1**2", "", "sqrt(\u0662)", "\uff13"):
            with pytest.raises(ExpressionError):
                parse_element(bad)

    def test_expression_error_is_a_value_error(self):
        assert issubclass(ExpressionError, ValueError)

    def test_nesting_bound(self):
        def nested(depth):
            return "(" * depth + "2" + ")" * depth

        assert parse_element(nested(MAX_NESTING)) == 2
        for depth in (MAX_NESTING + 1, 1200):
            with pytest.raises(ExpressionError, match="nested deeper"):
                parse_element(nested(depth))

    def test_sign_runs_read_without_recursion(self):
        assert parse_element("-" * 1500 + "3") == 3
        assert parse_element("-" * 1501 + "3") == -3
        assert parse_element("2-+-" + "+" * 2000 + "1") == 3

    def test_whitespace_around_tokens(self):
        assert parse_element(" 1 + sqrt( 2 ) / 3 ") == 1 + R2 / 3
        assert parse_triple(" [ 1 ,2, 3 ] ") == (1, 2, 3)

    def test_triple_takes_exactly_three_entries(self):
        assert parse_triple("[1,1+sqrt(2),(1-sqrt(2))]") == (1, 1 + R2, 1 - R2)
        for bad in ("[1,,2,3]", "[1,2,3,]", "[,1,2,3]", "[1,2]", "[1,2,3,4]", "1,2,3",
                    "[1,2,3", "[1,2,3]]", "[1,2,3]x", "[(1,2),3]", "[]", ""):
            with pytest.raises(ExpressionError):
                parse_triple(bad)

    def test_parse_sqrt_normalizes(self):
        assert parse_element("sqrt(8)") == 2 * R2
        assert parse_element("sqrt(12)") == 2 * R3

    def test_integers_past_the_digit_limit_are_typed_errors(self):
        # Python converts at most 4300 decimal digits between text and int
        assert parse_element("9" * 4300) == 10 ** 4300 - 1
        for text in ("9" * 4301, f"sqrt({'4' * 4301})", f"1+2*{'7' * 5000}"):
            with pytest.raises(DigitLimitExceeded, match="4300-digit limit"):
                parse_element(text)
        assert format_element(fe(10 ** 4299)) == "1" + "0" * 4299
        for a in (fe(10 ** 4300), fe(Fraction(1, 10 ** 4300)), 1 + 10 ** 4300 * R2):
            with pytest.raises(DigitLimitExceeded, match="4300-digit limit"):
                format_element(a)
        assert issubclass(DigitLimitExceeded, ValueError)


class TestFactorization:
    def test_against_sympy(self):
        import sympy

        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 10 ** 9)
            assert factorize(n) == dict(sympy.factorint(n))

    def test_squarefree_decompose(self):
        for n in (1, 4, 12, 360, 9801, 2 ** 10 * 3 ** 5):
            s, m = squarefree_decompose(n)
            assert s * s * m == n
            assert all(e == 1 for e in factorize(m).values()) or m == 1


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def _element_strategy(tower):
    return st.lists(
        small_fractions, min_size=1 << len(tower), max_size=1 << len(tower)
    ).map(lambda cs: FieldElement(tower, cs))


elements_23 = _element_strategy((2, 3))


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(elements_23, elements_23, elements_23)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(elements_23)
    def test_inverses(self, a):
        assert a + (-a) == 0
        if not a.is_zero():
            assert a * a.inverse() == 1

    @settings(max_examples=60, deadline=None)
    @given(elements_23, elements_23)
    def test_order_compatible(self, a, b):
        if a < b:
            assert a + 1 < b + 1
            assert not b < a


class TestFactorBudget:
    # psi_12, the least strong pseudoprime to the prime bases 2..37
    PSI12 = 318665857834031151167461
    P, Q = 399165290221, 798330580441

    def test_strong_pseudoprime_rejected(self):
        from ceviangeo.field import _is_prime

        assert self.P * self.Q == self.PSI12
        assert not _is_prime(self.PSI12)
        assert _is_prime(self.P) and _is_prime(self.Q)

    def test_budget_inside_proven_range(self):
        from ceviangeo.field import FACTOR_BUDGET_BITS, _MR_LIMIT, _is_prime

        assert 1 << FACTOR_BUDGET_BITS < _MR_LIMIT
        with pytest.raises(ValueError):
            _is_prime(_MR_LIMIT)

    def test_pseudoprime_radicand_refused(self):
        # sqrt(P*P*Q) == P*sqrt(Q) failed while psi_12 passed as a prime;
        # now the 118-bit radicand is refused instead
        from ceviangeo.field import FactorBudgetExceeded

        with pytest.raises(FactorBudgetExceeded):
            fe(f"sqrt({self.P * self.P * self.Q})")

    def test_square_factor_radicand_equality(self):
        import sympy

        p, q = sympy.prevprime(2 ** 21), sympy.nextprime(10 ** 6)
        assert fe(f"sqrt({p * p * q})") == p * fe(f"sqrt({q})")

    def test_semiprime_at_budget_against_sympy(self):
        import sympy

        n = 2147483659 * 4294867333  # 63 bits, two 32-bit primes
        assert factorize(n) == dict(sympy.factorint(n))

    def test_over_budget_refused(self):
        from ceviangeo.field import FactorBudgetExceeded, FieldError

        n = 211106232533047 * 211106233533017  # 96 bits
        with pytest.raises(FactorBudgetExceeded) as err:
            factorize(n)
        assert isinstance(err.value, FieldError)
        # small prime factors and squares are split off before the budget applies
        assert factorize(2 ** 200 * 3) == {2: 200, 3: 1}
        p = 1099511627791  # a 41-bit prime
        assert factorize(2 * p ** 4) == {2: 1, p: 4}
        assert sqrt_extending(fe(2 * p * p)) == p * R2

    def test_sqrt_paths_report_not_adjoinable(self):
        n = 211106232533047 * 211106233533017
        with pytest.raises(NotASquare) as err:
            fe(n).sqrt()
        assert err.value.radicand is None

    def test_tower_radicands_tried_before_factoring(self):
        # p has 89 bits, so factoring 3*p^2 or 2*p^2 is past the budget, but
        # each is p^2 times a radicand of its tower
        p = 2 ** 89 - 1
        root = p * R2 + p * R3
        assert (root * root).sqrt() == root
        assert fe(2 * p * p).in_tower((2,)).sqrt() == p * R2

    def test_sqrt_extending_searches_once(self, monkeypatch):
        from ceviangeo import field

        search, depth, outermost = field._root, [0], []

        def counted(a, radicands):
            if not depth[0]:
                outermost.append(a)
            depth[0] += 1
            try:
                return search(a, radicands)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(field, "_root", counted)
        assert sqrt_extending(5 + 2 * R6) == R2 + R3
        assert len(outermost) == 1


# ---------------------------------------------------------------------------
# differential tests: the integer-vector representation against sympy,
# mpmath and Fraction arithmetic

import sympy  # noqa: E402

from ceviangeo.field import (  # noqa: E402
    FactorBudgetExceeded,
    _directions,
)

# (6, 10) has a basis vector sqrt(60) = 2*sqrt(15), so embeddings into and
# out of it rescale coefficients
TOWERS = ((), (), (2,), (3,), (5,), (15,), (2, 3), (2, 5), (3, 7), (6, 10))
RADICANDS = (2, 3, 5, 6, 7)


def _sym(a: FieldElement):
    """The element as a sympy expression on its own tower's basis."""
    total = sympy.Integer(0)
    for i, c in enumerate(a.coeffs):
        basis = sympy.Integer(1)
        for bit, d in enumerate(a.tower):
            if i >> bit & 1:
                basis *= sympy.sqrt(d)
        total += sympy.Rational(c.numerator, c.denominator) * basis
    return total


def _sym_equal(x, y) -> bool:
    # sums of rational multiples of square roots of distinct squarefree
    # integers are linearly independent, so expand decides equality
    return sympy.expand(x - y) == 0


def _reduced_ok(a: FieldElement) -> bool:
    from math import gcd

    return (
        a.den > 0
        and gcd(a.den, *a.num) == 1
        and len(a.num) == 1 << len(a.tower)
        and all(isinstance(n, int) for n in a.num)
        and a.coeffs == tuple(Fraction(n, a.den) for n in a.num)
    )


small_q = st.fractions(min_value=-20, max_value=20, max_denominator=12)
big_q = st.builds(
    Fraction,
    st.integers(min_value=-(2 ** 300), max_value=2 ** 300),
    st.integers(min_value=1, max_value=2 ** 300),
)


@st.composite
def field_elements(draw, towers=TOWERS, coeffs=st.one_of(small_q, small_q, big_q)):
    tower = draw(st.sampled_from(towers))
    return FieldElement(tower, [draw(coeffs) for _ in range(1 << len(tower))])


@pytest.fixture(scope="module")
def height_pair():
    from ceviangeo.curve import GENERATOR

    w = 60 * GENERATOR
    return w.u, w.v


class TestDifferential:
    @settings(max_examples=80, deadline=None)
    @given(field_elements(), field_elements())
    def test_ring_operations_against_sympy(self, a, b):
        try:
            results = {"+": a + b, "-": a - b, "*": a * b}
        except TowerMismatch:
            with pytest.raises(TowerMismatch):
                FieldElement.common_tower(a, b)
            return
        sa, sb = _sym(a), _sym(b)
        assert _sym_equal(_sym(results["+"]), sa + sb)
        assert _sym_equal(_sym(results["-"]), sa - sb)
        assert _sym_equal(_sym(results["*"]), sa * sb)
        for r in results.values():
            assert _reduced_ok(r)
        if not b.is_zero():
            q = a / b
            assert _reduced_ok(q)
            assert _sym_equal(_sym(q) * sb, sa)

    @settings(max_examples=80, deadline=None)
    @given(field_elements())
    def test_inverse_and_sign_against_mpmath(self, a):
        import mpmath

        bits = max([abs(n).bit_length() for n in a.num] + [a.den.bit_length()])
        with mpmath.workdps(60 + bits):
            value = mpmath.mpf(0)
            for i, c in enumerate(a.coeffs):
                basis = mpmath.mpf(1)
                for bit, d in enumerate(a.tower):
                    if i >> bit & 1:
                        basis *= mpmath.sqrt(d)
                value += mpmath.mpf(c.numerator) / c.denominator * basis
            s = a.sign()
            if a.is_zero():
                assert s == 0 and value == 0
                return
            assert s == (1 if value > 0 else -1)
            inv = a.inverse()
            assert _reduced_ok(inv) and inv.tower == a.tower
            assert _sym_equal(_sym(inv) * _sym(a), 1)

    @settings(max_examples=60, deadline=None)
    @given(
        field_elements(towers=((), (2,), (3,), (5,), (2, 3), (2, 5), (3, 5))),
        st.sampled_from(RADICANDS),
        field_elements(towers=((2,),), coeffs=small_q),
    )
    def test_sqrt_and_sqrt_extending(self, a, k, b):
        # a depth-1 root that adjoins a radicand: 3*b^2 has its root on (2, 3),
        # and small coefficients keep any factoring inside the budget
        ext = sqrt_extending(b * b * 3)
        assert ext.sign() >= 0 and _reduced_ok(ext)
        assert _sym_equal(_sym(ext), sympy.Abs(_sym(b)) * sympy.sqrt(3))
        square = a * a
        root = square.sqrt()
        assert root == (a if a.sign() >= 0 else -a)
        assert _reduced_ok(root)
        try:
            ext = sqrt_extending(square * k)
        except (TowerDepthExceeded, FactorBudgetExceeded):
            return
        assert ext.sign() >= 0
        assert _sym_equal(_sym(ext), sympy.Abs(_sym(a)) * sympy.sqrt(k))

    @settings(max_examples=80, deadline=None)
    @given(field_elements())
    def test_text_and_json_roundtrip(self, a):
        text = format_element(a)
        back = parse_element(text)
        assert back == a and hash(back) == hash(a)
        assert _sym_equal(sympy.sympify(text), _sym(a))

    @settings(max_examples=80, deadline=None)
    @given(small_q | big_q, small_q | big_q)
    def test_rational_arithmetic_against_fractions(self, x, y):
        a, b = fe(x), fe(y)
        pairs = [(a + b, x + y), (a - b, x - y), (a * b, x * y), (-a, -x)]
        if y:
            pairs.append((a / b, x / y))
        for got, want in pairs:
            assert got.tower == () and _reduced_ok(got)
            assert got.as_fraction() == want
            assert hash(got) == hash(want)
        assert (a < b) == (x < y) and a.sign() == (x > 0) - (x < 0)

    @settings(max_examples=60, deadline=None)
    @given(
        field_elements(towers=((), (2,), (3,), (6,), (10,), (15,))),
        st.sampled_from(((2, 3), (6, 10))),
    )
    def test_equal_elements_on_other_towers_hash_alike(self, a, tower):
        try:
            wide = a.in_tower(tower)
        except TowerMismatch:
            assert set(a._present()) - set(_directions(tower))
            return
        assert wide.tower == tower and _reduced_ok(wide)
        assert wide == a and hash(wide) == hash(a)
        assert wide.minimal().tower == a.minimal().tower
        assert wide.minimal().num == a.minimal().num
        # arithmetic that cancels the irrational part keeps its tower
        padded = (a + R2) - R2
        assert padded == a and hash(padded) == hash(a)
        if a.is_rational():
            assert hash(a) == hash(a.as_fraction())

    def test_large_height_against_fractions(self, height_pair):
        u, v = height_pair
        assert u.is_rational() and u.den.bit_length() > 1000
        fu = u.as_fraction()
        fv = (v / R2).as_fraction()
        r, s = fe(fu), fe(fv)  # the same values at depth 0
        for got, want in ((u * u, fu * fu), (u + 3, fu + 3), (u - u / 7, fu - fu / 7),
                          (u.inverse(), 1 / fu), (v * v, 2 * fv * fv),
                          (r * s, fu * fv), (r / s, fu / fv), (r - s, fu - fv),
                          (r * 6 / 35 + s, fu * 6 / 35 + fv)):
            assert _reduced_ok(got)
            assert got.as_fraction() == want

    def test_large_height_in_towers_against_sympy(self, height_pair):
        u, v = height_pair
        a = u + v * (1 + R3)
        b = v - u * R6 + 1
        assert _reduced_ok(a) and a.tower == (2, 3)
        assert _sym_equal(_sym(a * b), _sym(a) * _sym(b))
        assert _sym_equal(_sym(a.inverse()) * _sym(a), 1)
        assert (a * a).sqrt() == (a if a.sign() > 0 else -a)
        assert parse_element(format_element(b)) == b


# one tower on both sides, then the mixed pairs that need an embedding
ORACLE_TOWER_PAIRS = (((), ()), ((2,), (2,)), ((3,), (3,)), ((2, 3), (2, 3)),
                      ((2,), (3,)), ((), (2, 3)), ((2,), (2, 3)))
PLAIN_OPERANDS = (0, 3, Fraction(-5, 7))


def _oracle_operands(tower, rng):
    """Zero, a rational value and an element with every coefficient nonzero,
    all written on ``tower``."""
    n = 1 << len(tower)

    def q():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 12))

    return [FieldElement(tower, [0] * n), FieldElement(tower, [q()] + [0] * (n - 1)),
            FieldElement(tower, [q() for _ in range(n)])]


def _sym_any(x):
    if isinstance(x, FieldElement):
        return _sym(x)
    return sympy.Rational(x.numerator, x.denominator)


class TestOperatorOracle:
    """Every operator against sympy on depths 0, 1 and 2, the mixed tower
    pairs and plain int and Fraction operands on either side, checking the
    value and the lowest-terms invariant of each result."""

    def _check(self, a, b):
        sa, sb = _sym_any(a), _sym_any(b)
        # (result, m, want) asks result * m == want, so quotients are checked
        # without rationalizing a denominator
        got = [(a + b, 1, sa + sb), (a - b, 1, sa - sb), (a * b, 1, sa * sb)]
        if sb != 0:
            got.append((a / b, sb, sa))
        for x, sx in ((a, sa), (b, sb)):
            if isinstance(x, FieldElement):
                got.append((-x, 1, -sx))
                if sx != 0:
                    got.append((x.inverse(), sx, 1))
        towers = {x.tower for x in (a, b) if isinstance(x, FieldElement)}
        for r, m, want in got:
            assert isinstance(r, FieldElement) and _reduced_ok(r)
            assert _sym_equal(_sym(r) * m, want)
            if len(towers) == 1:
                assert r.tower in towers
        equal = _sym_equal(sa, sb)
        assert (a == b) is equal and (b == a) is equal and (a != b) is not equal

    def test_operators_against_sympy(self):
        rng = random.Random(19)
        for ta, tb in ORACLE_TOWER_PAIRS:
            left, right = _oracle_operands(ta, rng), _oracle_operands(tb, rng)
            for a in left:
                for b in right:
                    self._check(a, b)
                    if ta != tb:
                        self._check(b, a)
        for tower in ((), (2,), (3,), (2, 3)):
            # the same numerators over different denominators
            halves, thirds = (FieldElement(tower, [Fraction(1, k)] * (1 << len(tower)))
                              for k in (2, 3))
            self._check(halves, thirds)
            for a in _oracle_operands(tower, rng):
                for b in PLAIN_OPERANDS:
                    self._check(a, b)
                    self._check(b, a)


class TestImmutability:
    """Assigning to an existing or a new attribute raises AttributeError, and
    copies and pickles are equal values that refuse assignment too."""

    def _objects(self):
        from ceviangeo.conics import Conic
        from ceviangeo.curve import GENERATOR, WPoint
        from ceviangeo.maps import AffineMap
        from ceviangeo.plane import BaryLine, BaryPoint, point
        from ceviangeo.verify import CheckResult, NFPoint, SuiteReport

        one = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        return [FieldElement((2,), (1, Fraction(1, 2))),  # built by __init__
                R2 * R3 + 1,  # built by an operator, through _make
                fe(3) - fe(Fraction(1, 2)),
                FieldElement.root(2) + 1,
                BaryPoint(1, 2, 3), BaryLine(1, -1, 0), point("[6,3,2]"), Conic(one),
                AffineMap(one), GENERATOR, WPoint.infinity(), NFPoint.of(0, 0),
                SuiteReport("demo", [CheckResult("a", True), CheckResult("b", False, "x")])]

    def test_attributes_cannot_be_set(self):
        for x in self._objects():
            for name in [*getattr(type(x), "__slots__", ()), "coords", "new_attribute"]:
                with pytest.raises(AttributeError):
                    setattr(x, name, 0)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal_and_immutable(self, clone):
        for x in self._objects():
            y = clone(x)
            assert type(y) is type(x) and y == x
            if isinstance(x, FieldElement):
                assert (y.tower, y.num, y.den) == (x.tower, x.num, x.den)
            for name in [*type(x).__slots__, "new_attribute"]:
                with pytest.raises(AttributeError):
                    setattr(y, name, 0)

    def test_equal_values_hash_equal(self):
        from ceviangeo.curve import GENERATOR, WPoint
        from ceviangeo.plane import BaryPoint
        from ceviangeo.verify import NFPoint

        pairs = [(BaryPoint(1, 2, 3), BaryPoint(-2, -4, -6)),
                 (BaryPoint(1, R2, 1), BaryPoint(R2, 2, R2)),
                 (GENERATOR, WPoint.of(3, "6*sqrt(2)")),
                 (GENERATOR, WPoint(fe(3).in_tower((2, 3)), (6 * R2).in_tower((2, 3)))),
                 (WPoint.infinity(), WPoint.infinity()),
                 (NFPoint.of(0, 0), NFPoint(fe(0).in_tower((2,)), fe(0)))]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)

    def test_values_equal_up_to_scale_or_holding_a_list_are_unhashable(self):
        from ceviangeo.conics import Conic
        from ceviangeo.maps import AffineMap
        from ceviangeo.verify import SuiteReport

        one = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for x in (Conic(one), AffineMap(one), SuiteReport("demo")):
            with pytest.raises(TypeError):
                hash(x)

    def test_records_pickle(self):
        from ceviangeo.maps import classify_transfer, derive_configuration
        from ceviangeo.plane import point

        p = point("[1,1+sqrt(2),1-sqrt(2)]")
        for x in (derive_configuration(p), classify_transfer(p)):
            y = pickle.loads(pickle.dumps(x))
            assert type(y) is type(x) and y == x

    def test_operator_results_are_field_elements(self):
        x = R2 * R3 + 1
        assert type(x) is FieldElement and x.num == (1, 0, 0, 1) and x.den == 1
        with pytest.raises(AttributeError):
            x.num = (2, 0, 0, 1)
        assert x.num == (1, 0, 0, 1)


# ---------------------------------------------------------------------------
# the integer formatter against the Fraction-based one it replaced


def _format_oracle(a: FieldElement) -> str:
    """format_element as written on the Fraction-valued ``coeffs``."""
    m = a.minimal()
    terms = []
    if m.coeffs[0] != 0:
        terms.append((m.coeffs[0], 1))
    for rad, (i, mult) in sorted(_directions(m.tower).items()):
        c = m.coeffs[i]
        if c != 0:
            terms.append((c * mult, rad))
    if not terms:
        return "0"
    parts = []
    for c, rad in terms:
        mag = -c if c < 0 else c
        if rad == 1:
            body = str(mag)
        elif mag == 1:
            body = f"sqrt({rad})"
        else:
            body = f"{mag}*sqrt({rad})"
        parts.append(("-" if c < 0 else ("+" if parts else "")) + body)
    return "".join(parts)


# (2, 6), (6, 10), (6, 15) and (10, 15) have a product radicand that is not
# squarefree, so their last basis vector is 2*sqrt(3), 2*sqrt(15), 3*sqrt(10)
# or 5*sqrt(6) and the printed coefficient is the stored one times that multiplier
FORMAT_TOWERS = ((), (2,), (3,), (15,), (2, 3), (2, 6), (6, 10), (6, 15), (10, 15))
edge_q = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                          Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 5)])


class TestIntegerFormatter:
    @settings(max_examples=300, deadline=None)
    @given(field_elements(towers=FORMAT_TOWERS,
                          coeffs=st.one_of(edge_q, edge_q, small_q, big_q)))
    def test_matches_fraction_oracle(self, a):
        assert format_element(a) == _format_oracle(a)

    def test_multiplier_edge_cases(self):
        half = Fraction(1, 2)
        cases = [
            FieldElement((6, 10), (0, 0, 0, half)),  # sqrt(15)
            FieldElement((6, 10), (0, 0, 0, -half)),  # -sqrt(15)
            FieldElement((6, 10), (1, -1, half, Fraction(1, 4))),
            FieldElement((2, 6), (0, 0, 0, half)),  # sqrt(3)
            FieldElement((10, 15), (0, 0, 0, Fraction(2, 5))),  # 2*sqrt(6)
            FieldElement((2, 3), (0, 0, 0, 0)),
            FieldElement((), (Fraction(-(2 ** 300) - 1, 3 ** 190),)),
        ]
        texts = [format_element(a) for a in cases]
        assert texts[:6] == ["sqrt(15)", "-sqrt(15)", "1-sqrt(6)+1/2*sqrt(10)+1/2*sqrt(15)",
                             "sqrt(3)", "2*sqrt(6)", "0"]
        for a, text in zip(cases, texts):
            assert text == _format_oracle(a)
            assert parse_element(text) == a
