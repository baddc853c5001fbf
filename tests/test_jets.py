"""Multi-indices, total derivatives and contact derivations."""

import random
from pathlib import Path

import pytest

import gvc.jets
from gvc import (
    ContactDerivation,
    EVEN,
    GvcError,
    ODD,
    ParityError,
    iterated_derivative,
    prolong_apply,
    total_derivative,
)

from gvc.brst import noether_residuals
from gvc.grassmann import Context, ExpansionLimitError, JetOrderError
from gvc.jets import add_total_derivative
from gvc.modelfile import parse_model, spec_model

from util import (assert_normal, field_generators, linear_jet_paths, linear_jet_polys,
                  make_context, oracle_add_total_derivative, oracle_coeffs,
                  oracle_poly, oracle_prolong_apply, random_poly, random_vertical,
                  shared_jet_cases, shared_jet_poly, superbracket)


class TestTotalDerivative:
    def test_coordinate_delta(self):
        ctx = make_context(2)
        x0 = ctx.var("x0")
        assert total_derivative(0, x0) == ctx.one()
        assert total_derivative(1, x0).is_zero()

    def test_field_raises_to_jet(self):
        ctx = make_context(2)
        assert total_derivative(0, ctx.var("s1")) == ctx.var("s1", 0)
        assert total_derivative(1, ctx.var("q1", 0)) == ctx.var("q1", 0, 1)

    def test_even_derivation_leibniz(self):
        ctx = make_context(2)
        rng = random.Random(21)
        for _ in range(40):
            p = random_poly(rng, ctx)
            q = random_poly(rng, ctx)
            lam = rng.randrange(2)
            lhs = total_derivative(lam, p * q)
            rhs = total_derivative(lam, p) * q + p * total_derivative(lam, q)
            assert (lhs - rhs).is_zero()

    def test_totals_commute(self):
        ctx = make_context(2)
        rng = random.Random(22)
        for _ in range(30):
            f = random_poly(rng, ctx)
            d01 = total_derivative(0, total_derivative(1, f))
            d10 = total_derivative(1, total_derivative(0, f))
            assert (d01 - d10).is_zero()


    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_fused_matches_per_variable_reference(self, dim):
        ctx = make_context(dim)
        rng = random.Random(40 + dim)
        for trial in range(30):
            parity = (None, EVEN, ODD)[trial % 3]
            p = random_poly(rng, ctx, terms=5, parity=parity)
            for lam in range(dim):
                want = p.deriv(ctx.coordinate(lam))
                for v in p.variables():
                    if v.gen.kind != "coordinate":
                        raised = ctx.var(v.gen, *v.index, lam)
                        want = want + raised * p.deriv(v)
                assert total_derivative(lam, p) == want

    def test_repeated_factors(self):
        ctx = make_context(2)
        s, s0, q, q0, q1 = (ctx.var("s1"), ctx.var("s1", 0), ctx.var("q1"),
                            ctx.var("q1", 0), ctx.var("q1", 1))
        # d_0 of s^2 s_0 = 2 s s_0^2 + s^2 s_00; of q q_1 = q_0 q_1 + q q_01
        p = s * s * s0 + q * q1
        want = (2 * (s * s0 * s0) + s * s * ctx.var("s1", 0, 0)
                + q0 * q1 + q * ctx.var("q1", 0, 1))
        assert total_derivative(0, p) == want
        # the raised jet of q may already be a factor: q q_0 -> q q_00
        assert total_derivative(0, q * q0) == q * ctx.var("q1", 0, 0)
        # powers of x^lam, and an even jet of exponent 2 or more whose
        # raised jet sorts away from its slot
        x0, x1, t1 = ctx.var("x0"), ctx.var("x1"), ctx.var("s2", 1)
        for p in (x0 * x0, x0 ** 3 * s0 * q, x0 * x0 * x1 * s * s * q0 * q1,
                  t1 ** 3 * s0 * s0 * q):
            for lam in range(2):
                for sign in (1, -1):
                    out = add_total_derivative(ctx.zero(), lam, p, sign).finish()
                    assert out.coeffs() == oracle_add_total_derivative({}, lam, p, sign)
                    assert_normal(out)

    def test_jet_order_cap(self):
        ctx = make_context(2, max_jet_order=2)
        for top in (ctx.var("s1", 0, 1), ctx.var("q1", 1, 1)):
            p = ctx.var("s2") * ctx.var("q2") + ctx.var("x0") * top
            with pytest.raises(JetOrderError):
                total_derivative(0, p)
        total_derivative(0, ctx.var("s1", 0) * ctx.var("q1", 1))

    def test_term_limit(self):
        ctx = make_context(2)
        p = random_poly(random.Random(43), ctx, terms=6)
        n = len(total_derivative(1, p).terms)
        ctx.term_limit = n
        total_derivative(1, p)
        add_total_derivative(ctx.zero(), 1, p, -1)
        ctx.term_limit = n - 1
        with pytest.raises(ExpansionLimitError):
            total_derivative(1, p)
        with pytest.raises(ExpansionLimitError):
            add_total_derivative(ctx.zero(), 1, p, -1)

    def test_add_matches_oracle(self):
        """The one-loop total derivative against the raised-term oracle of
        tests/util.py, summed into a polynomial that already holds terms."""
        ctx = make_context(3, evens=2, odds=2)
        rng = random.Random(45)
        hits_odd = cancelled = fractional = 0
        for _ in range(150):
            p = random_poly(rng, ctx, terms=rng.randint(0, 6), max_order=2)
            lam = rng.randrange(3)
            head = oracle_poly(ctx, dict(list(oracle_coeffs(p).items())
                                         [:rng.randint(0, len(p.terms))]))
            for sign in (1, -1):
                # the sum starts with minus d_lam of a part of p
                base = oracle_add_total_derivative({}, lam, head, -sign)
                out = oracle_poly(ctx, base)
                assert add_total_derivative(out, lam, p, sign) is out
                want = oracle_add_total_derivative(dict(base), lam, p, sign)
                assert out.finish().coeffs() == want
                assert_normal(out)
                cancelled += bool(set(base) - set(out.terms))
                fractional += out.den != 1
            # a raised odd letter that is already a factor kills the term
            hits_odd += any(ctx.raised(w, lam) in od for _, od in p.terms for w in od)
            twice = add_total_derivative(add_total_derivative(ctx.zero(), lam, p), lam, p, -1)
            assert twice.finish() == ctx.zero()
        assert hits_odd > 5 and cancelled > 20 and fractional > 20


class TestRaisedJets:
    def test_raise_is_the_interned_jet(self):
        ctx = make_context(2)
        v = ctx.jet("q1", (1,))
        r = ctx.raised(v, 0)
        assert r is ctx.jet("q1", (0, 1))
        assert ctx.raised(v, 0) is r
        assert ctx.raised(ctx.jet("q1", (0,)), 1) is r

    def test_over_order_raise_errors_on_every_call(self):
        ctx = make_context(2, max_jet_order=2)
        v = ctx.jet("s1", (0, 1))
        for _ in range(2):
            with pytest.raises(JetOrderError):
                ctx.raised(v, 0)
            with pytest.raises(JetOrderError):
                total_derivative(0, ctx.var("s1", 0, 1))
        assert ctx.raised(ctx.jet("s1", (0,)), 1) is v

    def test_sl3_full_asks_context_jet_once_per_raise(self, monkeypatch):
        """Each (jet variable, direction) raise reaches Context.jet once,
        however many total derivatives ask for it."""
        jet, raised = Context.jet, Context.raised
        keys, inner, depth = [], [], [0]

        def counted_raised(ctx, v, lam):
            keys.append((v, lam))
            depth[0] += 1
            try:
                return raised(ctx, v, lam)
            finally:
                depth[0] -= 1

        def counted_jet(ctx, gen, index=()):
            if depth[0]:
                inner.append((gen, index))
            return jet(ctx, gen, index)

        monkeypatch.setattr(Context, "raised", counted_raised)
        monkeypatch.setattr(Context, "jet", counted_jet)
        text = (Path(__file__).resolve().parent.parent / "bench" / "sl3.model").read_text(
            encoding="utf-8")
        model = spec_model(parse_model(text))
        assert model.full_verification().ok
        # a passing run reads the Noether rows from u L; applied whole, they
        # raise the total derivatives of E(L) again
        rows = noether_residuals(model.noether_operator(), model.generic_euler_lagrange())
        assert all(p.is_zero() for p in rows.values())
        assert len(inner) == len(set(keys))
        assert len(keys) > 10 * len(inner)


class TestIterated:
    def test_empty_is_identity(self):
        ctx = make_context(2)
        p = ctx.var("s1") * ctx.var("q1")
        assert iterated_derivative((), p) == p

    def test_repeated_index(self):
        ctx = make_context(2)
        assert iterated_derivative((1, 1), ctx.var("s1")) == ctx.var("s1", 1, 1)

    def test_matches_two_single_steps(self):
        ctx = make_context(2)
        rng = random.Random(23)
        for _ in range(20):
            p = random_poly(rng, ctx) * random_poly(rng, ctx)
            two = iterated_derivative((0, 1), p)
            steps = total_derivative(0, total_derivative(1, p))
            assert (two - steps).is_zero()


class TestContactDerivation:
    def test_constant_shift(self):
        ctx = make_context(1, evens=1, odds=0)
        shift = ContactDerivation(ctx, {"s1": ctx.one()}, EVEN)
        p = ctx.var("s1", 0) * ctx.var("s1")
        assert prolong_apply(shift, p) == ctx.var("s1", 0)

    def test_component_parity_enforced(self):
        ctx = make_context(1)
        with pytest.raises(ParityError):
            ContactDerivation(ctx, {"s1": ctx.var("q1")}, EVEN)

    def test_unregistered_component_rejected(self):
        ctx, other = make_context(1, evens=1), make_context(1, evens=2)
        with pytest.raises(GvcError, match="component on unregistered field 's2'"):
            ContactDerivation(ctx, {other.generator("s2"): other.one()}, EVEN)

    def test_no_horizontal_components(self):
        ctx = make_context(1)
        with pytest.raises(GvcError):
            ContactDerivation(ctx, {"x0": ctx.one()}, EVEN)

    def test_prolongation_commutes_with_totals(self):
        ctx = make_context(2)
        rng = random.Random(24)
        for _ in range(20):
            for parity in (EVEN, ODD):
                theta = random_vertical(rng, ctx, parity)
                f = random_poly(rng, ctx, max_order=2)
                lam = rng.randrange(2)
                lhs = prolong_apply(theta, total_derivative(lam, f))
                rhs = total_derivative(lam, prolong_apply(theta, f))
                assert (lhs - rhs).is_zero()

    def test_matches_per_variable_reference(self):
        ctx = make_context(2)
        rng = random.Random(25)
        for _ in range(20):
            for parity in (EVEN, ODD):
                theta = random_vertical(rng, ctx, parity)
                f = random_poly(rng, ctx, terms=5)
                want = ctx.zero()
                for v in f.variables():
                    if v.gen.kind != "coordinate":
                        want = want + theta.contract_variable(v) * f.deriv(v)
                assert prolong_apply(theta, f) == want

    def test_term_limit(self):
        ctx = make_context(2)
        rng = random.Random(26)
        theta = random_vertical(rng, ctx, EVEN)
        f = random_poly(rng, ctx, terms=6)
        n = len(prolong_apply(theta, f).terms)
        assert n > 1
        ctx.term_limit = n - 1
        with pytest.raises(ExpansionLimitError):
            prolong_apply(theta, f)

    def test_gauge_style_component(self):
        # derivative-of-parameter plus field-twist component on one field
        ctx = make_context(2, evens=2, odds=0)
        xi, a = "s1", "s2"
        comp = ctx.var(xi, 1) + ctx.var(a) * ctx.var(xi)
        theta = ContactDerivation(ctx, {a: comp}, EVEN)
        got = prolong_apply(theta, ctx.var(a, 0))
        want = ctx.var(xi, 0, 1) + ctx.var(a, 0) * ctx.var(xi) + ctx.var(a) * ctx.var(xi, 0)
        assert (got - want).is_zero()


class TestFusedLinearJets:
    """A linear jet whose partial is +-1 adds its total derivative straight
    into the sum; any other partial takes the product path."""

    def test_matches_memo_free_oracle(self):
        ctx = make_context(2)
        rng = random.Random(2014)
        counts = {"fused": 0, "product": 0}
        shared = {"den": 0, "power": 0, "first": 0, "later": 0}
        for trial in range(120):
            theta = random_vertical(rng, ctx, trial % 2)
            moved = list(theta.components) or field_generators(ctx)
            p = linear_jet_polys(rng, ctx, moved)
            assert prolong_apply(theta, p) == oracle_prolong_apply(theta, p)
            linear_jet_paths(theta, p, "left", counts)
            # a fresh memo, so the shared jet's value is not kept yet
            theta = ContactDerivation(ctx, theta.components, theta.parity)
            q, v = shared_jet_poly(rng, ctx, moved)
            assert prolong_apply(theta, q) == oracle_prolong_apply(theta, q)
            shared_jet_cases(theta, q, v, shared)
        assert counts["fused"] > 100 and counts["product"] > 100
        assert min(shared.values()) > 30, shared

    def test_kept_value_is_not_derived_again(self, monkeypatch):
        ctx = make_context(2)
        theta = ContactDerivation(ctx, {"s1": ctx.var("s2") * ctx.var("q1")}, ODD)
        kept = theta.contract_variable(ctx.jet("s1", (0, 1)))
        calls = []
        monkeypatch.setattr(gvc.jets, "add_total_derivative",
                            lambda *args: calls.append(args))
        assert prolong_apply(theta, -ctx.var("s1", 0, 1)) == -kept
        assert calls == []

    def test_jet_order_bound(self):
        ctx = make_context(2, max_jet_order=2)
        theta = ContactDerivation(ctx, {"s1": ctx.var("s2", 0)}, EVEN)
        for p in (ctx.var("s1", 0, 1), -ctx.var("s1", 0, 1)):
            with pytest.raises(JetOrderError):
                prolong_apply(theta, p)
        assert ctx.jet("s1", (0, 1)) not in theta._values

    def test_term_limit(self):
        ctx = make_context(1, evens=3, odds=0)
        comp = ctx.var("s2") * ctx.var("s3") * ctx.var("s2")
        theta = ContactDerivation(ctx, {"s1": comp}, EVEN)
        p = -ctx.var("s1", 0)
        ctx.term_limit = 1
        with pytest.raises(ExpansionLimitError):
            prolong_apply(theta, p)
        ctx.term_limit = 2
        assert prolong_apply(theta, p) == -total_derivative(0, comp)
        assert ctx.jet("s1", (0,)) not in theta._values


class TestContractVariableMemo:
    def test_repeated_calls_return_equal_values(self):
        ctx = make_context(2)
        rng = random.Random(27)
        for parity in (EVEN, ODD):
            theta = random_vertical(rng, ctx, parity)
            jets = [ctx.jet(g, idx) for g in ("s1", "s2", "q1", "q2")
                    for idx in ((), (0,), (0, 1), (1, 1))]
            first = [theta.contract_variable(v) for v in jets]
            again = [theta.contract_variable(v) for v in reversed(jets)]
            assert first == again[::-1]
            assert all(a is b for a, b in zip(first, again[::-1]))  # kept, not rebuilt
            for v, val in zip(jets, first):
                comp = theta.component(v.gen)
                assert val == iterated_derivative(v.index, comp)

    def test_fresh_derivation_is_unaffected(self):
        ctx = make_context(1, evens=2, odds=0)
        v = ctx.jet("s1", (0,))
        one = ContactDerivation(ctx, {"s1": ctx.var("s2")}, EVEN)
        assert one.contract_variable(v) == ctx.var("s2", 0)
        other = ContactDerivation(ctx, {"s1": ctx.var("s2") * ctx.var("s2")}, EVEN)
        assert other.contract_variable(v) == 2 * ctx.var("s2") * ctx.var("s2", 0)
        assert one.contract_variable(v) == ctx.var("s2", 0)
        assert ContactDerivation(ctx, {}, EVEN).contract_variable(v).is_zero()

    def test_limits_raise_on_every_call(self):
        ctx = make_context(2, max_jet_order=2)
        theta = ContactDerivation(ctx, {"s1": ctx.var("s2", 0)}, EVEN)
        v = ctx.jet("s1", (0, 1))
        for _ in range(2):
            with pytest.raises(JetOrderError):
                theta.contract_variable(v)
        ctx = make_context(1, evens=3, odds=0)
        comp = ctx.var("s2") * ctx.var("s3") * ctx.var("s2")
        theta = ContactDerivation(ctx, {"s1": comp}, EVEN)
        ctx.term_limit = 1
        for _ in range(2):
            with pytest.raises(ExpansionLimitError):
                theta.contract_variable(ctx.jet("s1", (0,)))
        ctx.term_limit = 10
        assert len(theta.contract_variable(ctx.jet("s1", (0,))).terms) == 2


class TestSuperbracket:
    def test_even_constant_self_bracket(self):
        ctx = make_context(1, evens=1, odds=0)
        theta = ContactDerivation(ctx, {"s1": ctx.one()}, EVEN)
        assert superbracket(theta, theta).is_zero()

    def test_odd_self_bracket_is_twice_square(self):
        ctx = make_context(2)
        rng = random.Random(25)
        for _ in range(15):
            theta = random_vertical(rng, ctx, ODD)
            sq = superbracket(theta, theta)
            p = random_poly(rng, ctx)
            lhs = prolong_apply(theta, prolong_apply(theta, p))
            rhs = prolong_apply(sq, p)
            assert (2 * lhs - rhs).is_zero()

    def test_nilpotency_criterion(self):
        # an odd derivation squares to zero exactly when it annihilates
        # its own components
        ctx = make_context(1, evens=1, odds=2)
        rng = random.Random(27)
        nil = ContactDerivation(ctx, {"q1": ctx.var("s1")}, ODD)
        assert prolong_apply(nil, nil.component("q1")).is_zero()
        for _ in range(10):
            p = random_poly(rng, ctx)
            assert prolong_apply(nil, prolong_apply(nil, p)).is_zero()
        broken = ContactDerivation(ctx, {"q1": ctx.var("s1"), "s1": ctx.var("q2")},
                                   ODD)
        assert not prolong_apply(broken, broken.component("q1")).is_zero()
        q1 = ctx.var("q1")
        assert not prolong_apply(broken, prolong_apply(broken, q1)).is_zero()

    def test_bracket_parity_and_leibniz(self):
        ctx = make_context(2)
        rng = random.Random(26)
        for _ in range(10):
            t1 = random_vertical(rng, ctx, ODD)
            t2 = random_vertical(rng, ctx, EVEN)
            br = superbracket(t1, t2)
            assert br.parity == ODD
            p = random_poly(rng, ctx)
            lhs = prolong_apply(t1, prolong_apply(t2, p)) - \
                prolong_apply(t2, prolong_apply(t1, p))
            assert (lhs - prolong_apply(br, p)).is_zero()
