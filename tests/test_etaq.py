import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from piq.errors import LevelMismatch, PreconditionViolated
from piq.etaq import (
    EXPANSION_MEMO_SIZE,
    Cusp,
    EtaQuotient,
    PiMonomial,
    cusps,
    cusps_equivalent,
    divisors,
    euler_phi,
    index_gamma0,
    ligozat_value,
    modularity_facts,
    order_at_cusp,
    pi_order_at_cusp,
    pi_to_eta,
    _expansion,
)
from piq.series import ScaledSeries, eta_expansion, psi_expansion


class TestPiToEta:
    def test_pi_q_itself(self):
        e = pi_to_eta(PiMonomial.make({1: 1}), 2)
        assert dict(e.exponents) == {2: 4, 1: -2}

    def test_half_exponent(self):
        e = pi_to_eta(PiMonomial.make({1: F(1, 2)}), 2)
        assert dict(e.exponents) == {2: 2, 1: -1}

    def test_collision_merge(self):
        e = pi_to_eta(PiMonomial.make({1: 1, 2: -1}), 4)
        assert dict(e.exponents) == {1: -2, 2: 6, 4: -4}
        # cross-check by expanding both representations
        s_eta = e.expand(34)
        mono = pi_to_eta(PiMonomial.make({1: 1}), 4).expand(34) * pi_to_eta(
            PiMonomial.make({2: 1}), 4
        ).expand(34).pow(-1)
        assert s_eta.agrees_with(mono, upto=30)

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatch):
            pi_to_eta(PiMonomial.make({3: 1}), 4)


class TestModularityFacts:
    def test_pi_q_fourth(self):
        facts = modularity_facts(pi_to_eta(PiMonomial.make({1: 4}), 2))
        assert facts.condition_a and facts.condition_b
        assert facts.weight == 4

    def test_pi_q_alone_fails_condition_a(self):
        facts = modularity_facts(pi_to_eta(PiMonomial.make({1: 1}), 2))
        assert not facts.condition_a

    def test_empty_quotient(self):
        facts = modularity_facts(EtaQuotient.make(6, {}))
        assert facts.weight == 0 and facts.condition_a and facts.condition_b


class TestCusps:
    @pytest.mark.parametrize(
        "level,labels",
        [
            (8, ["0", "1/2", "1/4", "oo"]),
            (12, ["0", "1/2", "1/3", "1/4", "1/6", "oo"]),
            (18, ["0", "1/2", "1/3", "2/3", "1/6", "5/6", "1/9", "oo"]),
        ],
    )
    def test_known_cusp_lists(self, level, labels):
        assert [c.label(level) for c in cusps(level)] == labels

    @pytest.mark.parametrize("level", [1, 2, 6, 8, 12, 16, 18, 20, 36, 40, 48, 72])
    def test_count_and_inequivalence(self, level):
        cs = cusps(level)
        expected = sum(euler_phi(math.gcd(s, level // s)) for s in divisors(level))
        assert len(cs) == expected
        for i, c1 in enumerate(cs):
            for c2 in cs[i + 1 :]:
                assert not cusps_equivalent(level, c1, c2)

    def test_equivalent_representatives(self):
        # 1/16 ~ infinity-style representative 1/16 at level 16; 3/4 vs 7/4.
        assert cusps_equivalent(16, Cusp(3, 4), Cusp(3, 4))
        assert cusps_equivalent(8, Cusp(1, 8), Cusp(3, 8))
        assert not cusps_equivalent(16, Cusp(1, 4), Cusp(3, 4))


TABLE_LEVEL8 = {
    "h": ({4: 12, 2: -4, 8: -8}, {"oo": -1, "0": 0, "1/2": 0, "1/4": 1}),
}


class TestOrders:
    def test_level8_hauptmodul_row(self):
        h = EtaQuotient.make(8, {4: 12, 2: -4, 8: -8})
        got = {c.label(8): order_at_cusp(h, c) for c in cusps(8)}
        assert got == {"oo": -1, "0": 0, "1/2": 0, "1/4": 1}

    def test_level8_f1_row(self):
        f1 = pi_to_eta(PiMonomial.make({1: 2, 2: -1, 4: -1}), 8)
        got = {c.label(8): order_at_cusp(f1, c) for c in cusps(8)}
        assert got == {"oo": -1, "0": 0, "1/2": 1, "1/4": 0}

    def test_pi_q4_order_at_infinity(self):
        quotient = pi_to_eta(PiMonomial.make({1: 4}), 2)
        assert order_at_cusp(quotient, Cusp(1, 2)) == 1
        assert quotient.expand(8).valuation() == 1

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionViolated):
            order_at_cusp(pi_to_eta(PiMonomial.make({1: 1}), 2), Cusp(1, 2))

    def test_pi_order_examples(self):
        assert pi_order_at_cusp(PiMonomial.make({1: 1}), Cusp(1, 2), 2) == F(1, 4)
        assert pi_order_at_cusp(PiMonomial.make({1: 1}), Cusp(0, 1), 2) == 0

    def test_pi_order_matches_ligozat_on_random_monomials(self):
        rng = random.Random(20260811)
        for _ in range(100):
            idx = rng.sample(range(1, 13), rng.randint(1, 4))
            exps = {n: F(rng.randint(-3, 3), rng.choice([1, 2])) for n in idx}
            mono = PiMonomial.make(exps)
            if not mono.exponents:
                continue
            for mult in (1, 2, 3):
                level = 2 * math.lcm(*mono.indices()) * mult
                quotient = pi_to_eta(mono, level)
                for c in cusps(level):
                    assert pi_order_at_cusp(mono, c, level) == ligozat_value(quotient, c)

    def test_character_disc_matches_modularity_facts(self):
        rng = random.Random(20261018)
        seen = 0
        while seen < 3000:
            idx = rng.sample(range(1, 25), rng.randint(1, 4))
            mono = PiMonomial.make({n: F(rng.randint(-7, 7), 2) for n in idx})
            if mono.weight.denominator != 1 or not mono.halves:
                continue
            level = 2 * math.lcm(*mono.indices()) * rng.choice([1, 2, 3])
            want = modularity_facts(pi_to_eta(mono, level)).character_disc
            assert mono.character_disc == want, (mono, level)
            seen += 1

    def test_pi_order_needs_indices_dividing_the_level(self):
        with pytest.raises(LevelMismatch):
            pi_order_at_cusp(PiMonomial.make({3: 1}), Cusp(1, 2), 2)

    def test_valence_identity(self):
        # Sum of cusp orders equals weight * index / 12 for certified quotients.
        rng = random.Random(7)
        samples = [
            EtaQuotient.make(4, {4: 24}),
            EtaQuotient.make(9, {9: 24}),
            pi_to_eta(PiMonomial.make({1: 4}), 2),
            pi_to_eta(PiMonomial.make({1: 2, 3: 2}), 12),
        ]
        for _ in range(20):
            idx = rng.sample([1, 2, 3, 4, 6], rng.randint(1, 3))
            exps = {n: rng.randint(-3, 3) for n in idx}
            mono = PiMonomial.make(exps)
            if not mono.exponents or mono.exponent_weighted_sum % 4 != 0:
                continue
            if mono.weight.denominator != 1:
                continue
            samples.append(pi_to_eta(mono, 2 * math.lcm(*mono.indices())))
        for quotient in samples:
            facts = modularity_facts(quotient)
            if not facts.satisfied:
                continue
            total = sum(order_at_cusp(quotient, c) for c in cusps(quotient.level))
            assert total == facts.weight * index_gamma0(quotient.level) / 12

    def test_order_at_infinity_equals_leading_exponent(self):
        for exps, level in [({1: 4}, 2), ({1: 2, 3: 2}, 6), ({2: 2, 6: 2}, 12)]:
            mono = PiMonomial.make(exps)
            quotient = pi_to_eta(mono, level)
            inf_cusp = Cusp(1, level)
            assert order_at_cusp(quotient, inf_cusp) == quotient.expand(10).valuation()


class TestIndex:
    @pytest.mark.parametrize("level,value", [(12, 24), (40, 72), (1, 1), (2, 3), (18, 36)])
    def test_examples(self, level, value):
        assert index_gamma0(level) == value


def _eta_power_product(e: EtaQuotient, terms: int) -> ScaledSeries:
    """Reference: multiply the truncated powers eta(delta*z)^r_delta one by one."""
    out = ScaledSeries.one()
    for delta, r in e.exponents:
        out = out * eta_expansion(delta, terms).pow(r)
    return out


def _fields(s: ScaledSeries):
    return s.scale, s.den, tuple(s.nums.items()), s.bound


class TestExpand:
    @pytest.mark.parametrize(
        "level,exponents,terms",
        [
            (72, {1: -9, 8: 4, 72: 9}, 1),  # T = 1 at the top level
            (72, {2: 5, 6: -3, 18: 2}, 17),  # gcd(delta) = 2
            (36, {9: -4, 18: 7, 36: -1}, 6),  # gcd(delta) = 9
            (1, {1: 24}, 12),  # the discriminant function
            (2, {1: -2, 2: 4}, 1),
        ],
    )
    def test_kernel_matches_eta_power_product(self, level, exponents, terms):
        e = EtaQuotient.make(level, exponents)
        assert _fields(e.expand(terms)) == _fields(_eta_power_product(e, terms))

    def test_kernel_matches_eta_power_product_seeded(self):
        rng = random.Random(20)
        for _ in range(40):
            level = rng.randint(2, 72)
            ds = divisors(level)
            picks = rng.sample(ds, rng.randint(1, min(4, len(ds))))
            exps = {d: rng.choice([r for r in range(-9, 10) if r]) for d in picks}
            terms = rng.randint(1, 24)
            e = EtaQuotient.make(level, exps)
            assert _fields(e.expand(terms)) == _fields(_eta_power_product(e, terms)), (
                level, exps, terms
            )

    def test_pi_q_route(self):
        got = pi_to_eta(PiMonomial.make({1: 1}), 2).expand(40)
        want = ScaledSeries.monomial(F(1, 4)) * (psi_expansion(40) * psi_expansion(40))
        assert got.agrees_with(want, upto=min(got.bound, want.bound))

    def test_level8_hauptmodul_expansion(self):
        h = EtaQuotient.make(8, {4: 12, 2: -4, 8: -8}).expand(12)
        assert [(e, c) for e, c in list(h.items())[:3]] == [
            (F(-1), F(1)),
            (F(1), F(4)),
            (F(3), F(2)),
        ]

    def test_level18_hauptmodul_expansion(self):
        h = EtaQuotient.make(18, {2: 2, 9: 1, 1: -1, 18: -2}).expand(12)
        assert [(e, c) for e, c in list(h.items())[:3]] == [
            (F(-1), F(1)),
            (F(0), F(1)),
            (F(2), F(1)),
        ]


class TestExpansionMemo:
    """PiMonomial.expand_to serves one shared, bounded memo of immutable series."""

    @staticmethod
    def _requests(seed, count):
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            idx = rng.sample([1, 2, 3, 4, 6, 8, 9, 12], rng.randint(0, 3))
            exps = {n: F(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]), 2) for n in idx}
            out.append((PiMonomial.make(exps), rng.randint(1, 30)))
        return out

    def test_cold_and_warm_match_the_kernel(self):
        requests = self._requests(2026, 150)
        assert any(h < 0 for m, _ in requests for _, h in m.halves)
        assert any(h % 2 for m, _ in requests for _, h in m.halves)
        _expansion.cache_clear()
        cold = [_expansion(m.halves, t) for m, t in requests]
        warm = [_expansion(m.halves, t) for m, t in requests]
        for (m, t), a, b in zip(requests, cold, warm):
            want = _fields(pi_to_eta(m, 2 * math.lcm(*m.indices())).expand(t))
            assert _fields(a) == want == _fields(b), (m, t)

    def test_requests_share_one_object(self):
        for m, t in self._requests(7, 40):
            assert _expansion(m.halves, t) is _expansion(m.halves, t)
            assert PiMonomial(m.halves).expand_to(t) is m.expand_to(t)

    def test_memo_stays_bounded(self):
        _expansion.cache_clear()
        for h in range(1, EXPANSION_MEMO_SIZE + 100):
            _expansion(PiMonomial.make({1: F(h, 2)}).halves, 2)
        info = _expansion.cache_info()
        assert info.misses > EXPANSION_MEMO_SIZE
        assert info.currsize <= info.maxsize == EXPANSION_MEMO_SIZE
        _expansion.cache_clear()


# ---------------------------------------------------------------------------
# PiMonomial against a Fraction-dict reference model
# ---------------------------------------------------------------------------
#
# The model is a dict n -> nonzero Fraction k, the representation PiMonomial
# had before it stored integer (n, 2k) pairs.


def _model(exps):
    return {n: F(k) for n, k in exps.items() if k != 0}


def _model_view(model):
    return tuple(sorted(model.items()))


def _model_mul(a, b):
    out = dict(a)
    for n, k in b.items():
        out[n] = out.get(n, F(0)) + k
    return _model(out)


def _model_pi_to_eta(model):
    acc = {}
    for n, k in model.items():
        acc[2 * n] = acc.get(2 * n, F(0)) + 4 * k
        acc[n] = acc.get(n, F(0)) - 2 * k
    return tuple(sorted((d, int(r)) for d, r in acc.items() if r != 0))


def _model_order(model, c, level):
    # Ligozat's formula on the model's eta exponents, in Fractions.
    s, total = c.s, F(0)
    for delta, r in _model_pi_to_eta(model):
        total += F(math.gcd(s, delta) ** 2 * r, math.gcd(s, level // s) * s * delta)
    return F(level, 24) * total


def _exponent_maps(indices=st.integers(min_value=1, max_value=30)):
    halves = st.integers(min_value=-9, max_value=9).map(lambda h: F(h, 2))
    return st.dictionaries(indices, halves, max_size=5)


_HALF_POWERS = st.sampled_from([F(e, 2) for e in range(-5, 6)] + [F(e, 3) for e in (-2, 1, 2)])


class TestPiMonomialModel:
    @given(_exponent_maps(), _exponent_maps())
    @settings(max_examples=150, deadline=None)
    def test_make_mul_views_and_hash(self, a, b):
        ma, mb = PiMonomial.make(a), PiMonomial.make(b)
        model = _model(a)
        assert ma.exponents == _model_view(model)
        assert all(type(k) is F for _, k in ma.exponents)
        assert repr(ma) == f"PiMonomial(exponents={_model_view(model)!r})"
        assert ma.indices() == tuple(sorted(model))
        assert ma.weight == sum(model.values(), F(0))
        assert ma.exponent_weighted_sum == sum((n * k for n, k in model.items()), F(0))
        assert ma.valuation == sum((n * k for n, k in model.items()), F(0)) / 4
        assert all(type(x) is F for x in (ma.weight, ma.exponent_weighted_sum, ma.valuation))
        assert (ma * mb).exponents == _model_view(_model_mul(model, _model(b)))
        assert ma * mb == mb * ma
        assert (ma == mb) == (model == _model(b))
        again = PiMonomial.make(dict(reversed(list(a.items()))))
        assert again == ma and hash(again) == hash(ma)
        assert ma * PiMonomial.one() == ma == PiMonomial.one() * ma

    @given(_exponent_maps(), _HALF_POWERS)
    @settings(max_examples=150, deadline=None)
    def test_pow_matches_model_or_raises(self, a, e):
        model = {n: k * e for n, k in _model(a).items()}
        if all((2 * k).denominator == 1 for k in model.values()):
            assert (PiMonomial.make(a) ** e).exponents == _model_view(_model(model))
        else:
            with pytest.raises(ValueError, match="not a half-integer"):
                PiMonomial.make(a) ** e

    @given(_exponent_maps(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_subst_and_inverse(self, a, j):
        m = PiMonomial.make(a)
        assert m.subst(j).exponents == _model_view({n * j: k for n, k in _model(a).items()})
        inverse = m ** -1
        assert m * inverse == PiMonomial.one()
        assert hash(m * inverse) == hash(PiMonomial.one())

    def test_make_rejects_bad_exponents_and_indices(self):
        with pytest.raises(ValueError, match="not a half-integer"):
            PiMonomial.make({1: F(1, 3)})
        for n in (0, -2):
            with pytest.raises(ValueError, match="positive integer"):
                PiMonomial.make({n: 1})
        assert PiMonomial.make({0: 0}) == PiMonomial.one()

    @given(_exponent_maps(st.sampled_from((1, 2, 3, 4, 6, 8, 12))), st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_pi_to_eta_and_cusp_orders_match_model(self, a, mult):
        model = _model(a)
        m = PiMonomial.make(a)
        level = 2 * math.lcm(*m.indices(), 1) * mult
        assert pi_to_eta(m, level).exponents == _model_pi_to_eta(model)
        for c in cusps(level):
            assert pi_order_at_cusp(m, c, level) == _model_order(model, c, level)
