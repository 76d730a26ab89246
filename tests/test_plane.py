import random
from fractions import Fraction

import pytest

from ceviangeo.field import FieldElement, fe
from ceviangeo.plane import (
    A,
    B,
    C,
    D0,
    G,
    LINE_AT_INFINITY,
    BaryLine,
    BaryPoint,
    CoincidentBase,
    IdenticalArguments,
    InfiniteLineArgument,
    InfinitePointArgument,
    NotCollinear,
    WeightsSumNotOne,
    affine_combination,
    centroid,
    collinear,
    displacement_ratio,
    infinite_point_of,
    is_parallel,
    join,
    meet,
    midpoint,
    point,
    point_to_literal,
    signed_ratio,
)

R2 = FieldElement.root(2)


class TestIncidence:
    def test_join_median(self):
        assert join(A, G) == BaryLine(0, 1, -1)

    def test_join_axis_parallel(self):
        assert join(G, BaryPoint(0, 1, -1)) == BaryLine(-2, 1, 1)

    def test_meet_infinite(self):
        assert meet(LINE_AT_INFINITY, BaryLine(1, 0, 0)) == BaryPoint(0, 1, -1)

    def test_join_identical(self):
        with pytest.raises(IdenticalArguments):
            join(A, BaryPoint(2, 0, 0))

    def test_incidence_coherence_random(self):
        rng = random.Random(2)
        for _ in range(40):
            p = _rand_point(rng)
            q = _rand_point(rng)
            l = _rand_line(rng)
            if p == q:
                continue
            pq = join(p, q)
            if l == pq:
                continue
            x = meet(l, pq)
            if x == p:
                continue
            assert join(p, x) == pq

    def test_parallel(self):
        assert is_parallel(BaryLine(1, 0, 0), BaryLine(-2, 1, 1))
        assert not is_parallel(BaryLine(1, 0, 0), BaryLine(0, 1, 0))
        # through A parallel to BC
        assert is_parallel(BaryLine(1, 0, 0), BaryLine(0, 1, 1))
        with pytest.raises(InfiniteLineArgument):
            is_parallel(LINE_AT_INFINITY, BaryLine(1, 0, 0))

    def test_infinite_point_of(self):
        assert infinite_point_of(BaryLine(1, 0, 0)) == BaryPoint(0, 1, -1)
        with pytest.raises(InfiniteLineArgument):
            infinite_point_of(LINE_AT_INFINITY)


def _rand_point(rng):
    while True:
        coords = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
        if any(coords):
            p = BaryPoint(*coords)
            if not p.is_infinite():
                return p


def _rand_line(rng):
    while True:
        coords = [rng.randint(-6, 6) for _ in range(3)]
        if any(coords):
            return BaryLine(*coords)


class TestRatios:
    def test_centroid_divides_median(self):
        assert signed_ratio(A, G, D0) == fe("2/3")

    def test_midpoint_ratio(self):
        m = midpoint(B, C)
        assert m == D0
        assert signed_ratio(B, m, C) == fe("1/2")

    def test_cocycle_product(self):
        rng = random.Random(9)
        for _ in range(30):
            x = _rand_point(rng)
            z = _rand_point(rng)
            if x == z:
                continue
            t = Fraction(rng.randint(2, 9), rng.randint(1, 5))
            y = affine_combination([(x, fe(1 - t)), (z, fe(t))])
            if y == x or y == z:
                continue
            u = signed_ratio(x, y, z)
            v = signed_ratio(y, z, x)
            w = signed_ratio(z, x, y)
            assert u * v * w == -1

    def test_not_collinear(self):
        with pytest.raises(NotCollinear):
            signed_ratio(A, B, C)

    def test_coincident_base(self):
        with pytest.raises(CoincidentBase):
            signed_ratio(A, B, A)

    def test_displacement_ratio(self):
        assert displacement_ratio(A, G, G, D0) == 2


class TestCombinations:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(WeightsSumNotOne):
            affine_combination([(A, fe(1)), (B, fe(1))])

    def test_infinite_point_rejected(self):
        with pytest.raises(InfinitePointArgument):
            midpoint(A, BaryPoint(0, 1, -1))

    def test_centroid(self):
        assert centroid(A, B, C) == G


class TestCanonical:
    def test_equality_up_to_scale(self):
        assert BaryPoint(2, 4, 6) == BaryPoint(1, 2, 3)
        assert BaryPoint(2, 4, 6) != BaryPoint(1, 2, 4)

    def test_canonical_idempotent(self):
        p = BaryPoint(fe(3), 6 * R2, fe(9))
        c1 = p.canonical()
        assert c1.canonical() == c1
        assert BaryPoint(*(x * 7 for x in p.coords)).canonical() == c1

    def test_hash_consistent(self):
        assert hash(BaryPoint(2, 4, 6)) == hash(BaryPoint(1, 2, 3))

    def test_literal_roundtrip(self):
        p = point("[1,1+sqrt(2),1-sqrt(2)]")
        assert point(point_to_literal(p)) == p

    def test_literal_grammar(self):
        assert point(" [ 6 ,3, 2 ] ") == BaryPoint(6, 3, 2)
        for bad in ("[1,,2,3]", "[1,2,3,]", "[1,2]", "(1,2,3)"):
            with pytest.raises(ValueError):
                point(bad)

    def test_zero_triple_rejected(self):
        with pytest.raises(ValueError):
            BaryPoint(0, 0, 0)

    def test_collinear(self):
        assert collinear(B, D0, C)
        assert not collinear(A, B, G)
