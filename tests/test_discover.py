import math
from fractions import Fraction as F

import pytest

from piq.discover import (
    DiscoveryQuery,
    enumerate_monomials,
    gosper_bound,
    mine,
)
from piq.errors import Unbounded
from piq.etaq import PiMonomial


class TestEnumerate:
    def test_level12_degree2(self):
        classes = enumerate_monomials((1, 2, 3, 6), 2)
        assert sum(len(v) for v in classes.values()) == 10
        zero = [dict(m.exponents) for m in classes[0]]
        assert zero == [
            {1: 1, 3: 1},
            {2: 2},
            {2: 1, 6: 1},
            {6: 2},
        ]

    def test_count_is_stars_and_bars(self):
        classes = enumerate_monomials((1, 2, 5, 10), 4)
        assert sum(len(v) for v in classes.values()) == 35  # binom(4 + 4 - 1, 4 - 1)

    def test_degree_one(self):
        classes = enumerate_monomials((1, 2, 7), 1)
        assert sum(len(v) for v in classes.values()) == 3
        for residue, monos in classes.items():
            for m in monos:
                assert m.exponent_weighted_sum % 4 == residue


class TestGosperBound:
    def test_spec_values(self):
        assert gosper_bound(DiscoveryQuery.make((1, 2, 5, 10))) == 3
        assert gosper_bound(DiscoveryQuery.make((1, 2, 3))) == 7

    def test_two_indices_unbounded(self):
        with pytest.raises(Unbounded):
            gosper_bound(DiscoveryQuery.make((1, 2)))

    def test_brute_force_oracle(self):
        def brute(indices):
            m = len(indices)
            n = math.lcm(*indices)
            factor = F(1)
            mm = n
            while mm % 2 == 0:
                mm //= 2
            p = 3
            while mm > 1:
                if mm % p == 0:
                    factor *= F(p + 1, p)
                    while mm % p == 0:
                        mm //= p
                p += 2
            k = 1
            while math.comb(2 * k + m - 1, m - 1) <= 2 * k * n * factor + 1:
                k += 1
            return k

        for indices in [(1, 2, 3), (1, 3, 5), (2, 3, 7), (1, 2, 5, 10), (1, 4, 9)]:
            assert gosper_bound(DiscoveryQuery.make(indices)) == brute(indices)


class TestMine:
    def test_level12_degree2_exactly_one_relation(self):
        rels = mine(DiscoveryQuery.make((1, 2, 3, 6), 2))
        assert len(rels) == 1
        rel = rels[0]
        assert rel.degree == 2 and rel.residue_class == 0
        want = {
            PiMonomial.make({2: 2}): 1,
            PiMonomial.make({2: 1, 6: 1}): 2,
            PiMonomial.make({1: 1, 3: 1}): -1,
            PiMonomial.make({6: 2}): -3,
        }
        got = rel.coefficient_map()
        sign = 1 if got[PiMonomial.make({2: 2})] > 0 else -1
        assert {m: sign * c for m, c in got.items()} == want
        assert rel.certificate.verdict == "PROVEN"

    def test_two_indices_mine_nothing(self):
        assert mine(DiscoveryQuery.make((1, 2), 6)) == []

    def test_relations_have_constant_residue(self):
        for rel in mine(DiscoveryQuery.make((1, 2, 3, 6), 2)):
            for mono, c in rel.coefficient_map().items():
                assert mono.exponent_weighted_sum % 4 == rel.residue_class

    def test_homogeneous_scaling_finds_image_relation(self):
        base = mine(DiscoveryQuery.make((1, 2, 3, 6), 2))[0]
        scaled = mine(DiscoveryQuery.make((2, 4, 6, 12), 2))
        assert len(scaled) == 1
        want = {m.subst(2): c for m, c in base.coefficient_map().items()}
        got = scaled[0].coefficient_map()
        sign = 1 if list(got.values())[0] * list(want.values())[0] > 0 else 1
        norm = {m: c for m, c in got.items()}
        flip = {m: -c for m, c in got.items()}
        assert want in (norm, flip)

    def test_degree3_not_swamped_by_inherited_multiples(self):
        rels = mine(DiscoveryQuery.make((1, 2, 3, 6), 3))
        deg2 = [r for r in rels if r.degree == 2]
        assert len(deg2) == 1
        span_dim = len(rels)
        # four monomial multiples of the degree-2 relation would appear
        # without deduplication; everything emitted at degree 3 must be new
        base = deg2[0]
        for rel in rels:
            if rel.degree != 3:
                continue
            for mono_exps in [{1: 1}, {2: 1}, {3: 1}, {6: 1}]:
                mu = PiMonomial.make(mono_exps)
                inherited = {m * mu: c for m, c in base.coefficient_map().items()}
                got = rel.coefficient_map()
                assert got != inherited and got != {m: -c for m, c in inherited.items()}

    def test_relations_round_trip_through_dsl(self):
        from piq.ident import parse_identity

        for rel in mine(DiscoveryQuery.make((1, 2, 3, 6), 2)):
            rec = parse_identity(rel.dsl)
            from piq.verify import prove

            assert prove(rec).verdict == "PROVEN"

    @pytest.mark.parametrize(
        "indices,degree", [((1, 2, 3, 6), 2), ((1, 2, 3, 6), 3), ((2, 4, 6, 12), 2)]
    )
    def test_relations_have_one_character(self, indices, degree):
        # Integer exponents of degree d give every monomial disc (-1)^d.
        for rel in mine(DiscoveryQuery.make(indices, degree)):
            chars = {tf.character for tf in rel.certificate.certificate.terms}
            assert chars == {(-1) ** rel.degree}, rel.dsl


class TestMineWithoutIndexOne:
    """Index sets without 1, whose column windows count steps of q^min(index) > q."""

    @pytest.mark.parametrize(
        "indices,degree,want",
        [
            ((2, 4, 8), 4, [(
                "pi(2)^2*pi(8) = pi(4)^3 + 4*pi(4)*pi(8)^2",
                "mined-2.4.8-d3-c0-0\tPROVEN\t3\t16\t1\t7\t7",
            )]),
            ((3, 6, 9, 18), 3, [(
                "pi(3)*pi(9) + 3*pi(18)^2 = pi(6)^2 + 2*pi(6)*pi(18)",
                "mined-3.6.9.18-d2-c0-0\tPROVEN\t2\t36\t1\t13\t13",
            )]),
        ],
    )
    def test_relations_pinned(self, indices, degree, want):
        rels = mine(DiscoveryQuery.make(indices, degree))
        assert [(r.dsl, r.certificate.tsv_line()) for r in rels] == want
