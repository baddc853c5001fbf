"""Normal ordering, products and graded derivatives of the kernel."""

import random
from fractions import Fraction

import pytest

import gvc.grassmann
from gvc import Context, EVEN, ODD, GvcError, ParityError, UnknownGeneratorError
from gvc.grassmann import (KINDS, ExpansionLimitError, Generator, JetOrderError, Poly,
                           add_product, exact, normalize)
from gvc.jets import add_total_derivative, total_derivative

from util import (antifield_numbers, assert_normal, even_part, field_generators,
                  make_context, odd_part, oracle_add_product, oracle_add_total_derivative,
                  oracle_coeffs, oracle_partial, oracle_poly, oracle_substitute, random_poly,
                  relabel)


@pytest.fixture
def ctx():
    c = Context(2)
    for name in ("c1", "c2", "c3"):
        c.add_generator(name, "ghost", ODD, ghost_number=1, antifield_number=-1)
    c.add_generator("s", "even-field", EVEN)
    return c


def bubble_sign(names):
    """Independent sign oracle: bubble sort with a transposition count."""
    names = list(names)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(names) - 1):
            if names[i] > names[i + 1]:
                names[i], names[i + 1] = names[i + 1], names[i]
                sign = -sign
                changed = True
    return sign, names


class TestInterning:
    def test_equal_jets_are_one_object(self, ctx):
        s = ctx.generator("s")
        assert ctx.jet(s, (1, 0)) is ctx.jet(s, (0, 1))
        assert ctx.jet("s", (1,)) is ctx.jet(s, (1,))
        assert ctx.jet("c1") is ctx.jet(ctx.generator("c1"))


class TestOrderKey:
    def test_string_key_matches_tuple_order(self):
        """Variable.key orders as (kind rank, name, index) does, prefix
        names (a1 < a10, a1 < a1_) included."""
        rng = random.Random(47)
        names = {"a", "a1", "a10", "a1_", "a_1", "a0", "A1", "_", "1", "a1_0",
                 "a\x01", "\x01"}
        while len(names) < 40:
            names.add("".join(rng.choice("a1_0Z9") for _ in range(rng.randint(1, 4))))
        ctx = Context(4)
        for name in sorted(names):
            # the names "a" and "a\x01" share a kind, so only the key's
            # separator tells a jet of "a" from "a\x01"
            kind = "even-field" if name.startswith("a") else rng.choice(
                ("even-field", "ghost", "antifield"))
            ctx.add_generator(name, kind, rng.choice((EVEN, ODD)))
        variables = list(ctx.coordinates)
        for gen in ctx.generators.values():
            if gen.kind != "coordinate":
                for order in range(4):
                    for _ in range(3):
                        variables.append(ctx.jet(gen, [rng.randrange(4) for _ in range(order)]))
        variables = list(dict.fromkeys(variables))
        rng.shuffle(variables)

        def old_key(v):
            return (KINDS.index(v.gen.kind), v.gen.name, v.index)

        assert len({v.key for v in variables}) == len(variables)
        assert sorted(variables, key=lambda v: v.key) == sorted(variables, key=old_key)
        sample = rng.sample(variables, 300)
        for a in sample:
            for b in sample:
                assert (a.key < b.key) == (old_key(a) < old_key(b))
                assert (a.key == b.key) == (a is b)

    def test_bad_names_rejected(self):
        ctx = Context(1)
        for name in ("", "a\x00", "\x00", 3, None, ("a",)):
            with pytest.raises(GvcError):
                Generator(name, "even-field", EVEN)
            with pytest.raises(GvcError):
                ctx.add_generator(name, "even-field", EVEN)
        assert list(ctx.generators) == ["x0"]


class TestNormalize:
    def test_odd_square_vanishes(self, ctx):
        assert normalize(ctx, 1, [ctx.jet("c1"), ctx.jet("c1")]).is_zero()

    def test_single_transposition(self, ctx):
        got = normalize(ctx, 1, [ctx.jet("c2"), ctx.jet("c1")])
        assert got == -(ctx.var("c1") * ctx.var("c2"))

    def test_three_factor_sign(self, ctx):
        # oracle: count transpositions by bubble sort
        sign, _ = bubble_sign(["c3", "c1", "c2"])
        assert sign == 1
        got = normalize(ctx, 1, [ctx.jet("c3"), ctx.jet("c1"), ctx.jet("c2")])
        assert got == ctx.var("c1") * ctx.var("c2") * ctx.var("c3")

    def test_order_independence_up_to_sign(self, ctx):
        rng = random.Random(7)
        names = ["c1", "c2", "c3"]
        for _ in range(50):
            perm = names[:]
            rng.shuffle(perm)
            sign, _ = bubble_sign(perm)
            got = normalize(ctx, 1, [ctx.jet(n) for n in perm])
            want = normalize(ctx, sign, [ctx.jet(n) for n in names])
            assert got == want

    def test_idempotent_through_product(self, ctx):
        p = normalize(ctx, 2, [ctx.jet("c2"), ctx.jet("c1"), ctx.jet("s")])
        assert p * ctx.one() == p

    def test_unknown_generator(self, ctx):
        other = Context(2)
        other.add_generator("w", "odd-field", ODD)
        with pytest.raises(UnknownGeneratorError):
            normalize(ctx, 1, [other.jet("w")])


class TestMultiply:
    def test_graded_commutativity_of_generators(self, ctx):
        a, b = ctx.var("c1"), ctx.var("c2")
        assert a * b == -(b * a)

    def test_four_element_basis_square(self, ctx):
        u = ctx.one() + ctx.var("c1") * ctx.var("c2")
        # hand oracle over the basis {1, c1, c2, c1c2}
        assert u * u == ctx.one() + 2 * (ctx.var("c1") * ctx.var("c2"))

    def test_unit_law_random(self, ctx):
        rng = random.Random(11)
        for _ in range(20):
            p = random_poly(rng, ctx, terms=3)
            assert p * ctx.one() == p
            assert ctx.one() * p == p

    def test_even_powers_allowed(self, ctx):
        s = ctx.var("s")
        assert not (s * s * s).is_zero()

    def test_scalar_multiplication(self, ctx):
        p = ctx.var("c1") * ctx.var("c2")
        assert p * Fraction(1, 2) + p * Fraction(1, 2) == p


class TestDerivative:
    def test_leading_factor(self, ctx):
        p = ctx.var("c1") * ctx.var("c2")
        assert p.deriv(ctx.jet("c1")) == ctx.var("c2")

    def test_sign_from_anticommuting_to_front(self, ctx):
        p = ctx.var("c1") * ctx.var("c2")
        got = p.deriv(ctx.jet("c2"))
        assert got == -ctx.var("c1")
        # interior-product oracle: contract the second slot of c1c2
        slots = ["c1", "c2"]
        acc = ctx.zero()
        for pos, name in enumerate(slots):
            if name == "c2":
                rest = [ctx.jet(n) for n in slots[:pos] + slots[pos + 1:]]
                acc = acc + normalize(ctx, (-1) ** pos, rest)
        assert got == acc

    def test_missing_variable(self, ctx):
        p = ctx.var("x0") * ctx.var("x0") + ctx.var("c2") * ctx.var("c3")
        assert p.deriv(ctx.jet("c1")).is_zero()

    def test_right_derivative_mirrors(self, ctx):
        p = ctx.var("c1") * ctx.var("c2")
        assert p.deriv(ctx.jet("c2"), side="right") == ctx.var("c1")
        assert p.deriv(ctx.jet("c1"), side="right") == -ctx.var("c2")

    def test_right_left_conversion_sign(self, ctx):
        rng = random.Random(13)
        v = ctx.jet("c1")
        for _ in range(40):
            p = random_poly(rng, ctx, terms=3)
            for parity, part in ((EVEN, even_part(p)), (ODD, odd_part(p))):
                sign = 1 if v.parity == EVEN else (-1) ** ((parity + 1) % 2)
                assert part.deriv(v, "right") == sign * part.deriv(v, "left")

    def test_even_derivative_power_rule(self, ctx):
        s = ctx.var("s")
        p = s * s * s
        assert p.deriv(ctx.jet("s")) == 3 * (s * s)


class TestPartials:
    """`partials` against the per-variable `deriv` as the reference."""

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_deriv_per_variable(self, side):
        ctx = make_context(3)
        rng = random.Random(31)
        for trial in range(60):
            parity = (None, EVEN, ODD)[trial % 3]
            p = random_poly(rng, ctx, terms=5, parity=parity, allow_coords=True)
            got = list(p.partials(side))
            want = {}
            for v in p.variables():
                d = p.deriv(v, side)
                if not d.is_zero():
                    want[v] = d
            assert len(got) == len(dict(got))
            assert dict(got) == want

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_filtered_by_generators(self, side):
        ctx = make_context(2)
        gens = [g for g in ctx.generators.values()]
        rng = random.Random(33)
        sizes = set()
        for trial in range(60):
            parity = (None, EVEN, ODD)[trial % 3]
            p = random_poly(rng, ctx, terms=5, parity=parity, allow_coords=True)
            keep = set(rng.sample(gens, rng.randint(0, len(gens))))
            got = [(v, d.terms) for v, d in p.partials(side, keep)]
            want = [(v, d.terms) for v, d in p.partials(side) if v.gen in keep]
            assert got == want  # same partials, in the same order
            sizes.add(len(got) < len(list(p.partials(side))))
        assert sizes == {False, True}

    def test_coordinates_and_powers(self, ctx):
        x0, s, c1, c2 = (ctx.var(n) for n in ("x0", "s", "c1", "c2"))
        p = x0 * s * s * c2 * c1 + 3 * s * c1
        got = dict(p.partials("right"))
        assert got[ctx.jet("x0")] == -(s * s * c1 * c2)
        assert got[ctx.jet("s")] == -2 * (x0 * s * c1 * c2) + 3 * c1
        assert got[ctx.jet("c1")] == x0 * s * s * c2 + 3 * s
        assert got[ctx.jet("c2")] == -(x0 * s * s * c1)
        assert set(got) == p.variables()

    def test_zero_and_bad_side(self, ctx):
        assert list(ctx.zero().partials()) == []
        with pytest.raises(GvcError):
            list(ctx.var("s").partials("middle"))

    def test_add_product_accumulates_in_place(self):
        ctx = make_context(2)
        rng = random.Random(32)
        for _ in range(20):
            a, p, q = (random_poly(rng, ctx, terms=4) for _ in range(3))
            out = Poly(ctx, dict(a.terms), a.den)
            assert add_product(out, p, q) is out
            assert out.finish() == a + p * q


class TestProperties:
    def test_graded_commutativity_random(self):
        ctx = make_context(2)
        rng = random.Random(3)
        for _ in range(100):
            for pp in (EVEN, ODD):
                for qp in (EVEN, ODD):
                    p = random_poly(rng, ctx, parity=pp)
                    q = random_poly(rng, ctx, parity=qp)
                    sign = -1 if (pp and qp) else 1
                    assert (p * q - sign * (q * p)).is_zero()

    def test_associativity_random(self):
        ctx = make_context(2)
        rng = random.Random(4)
        for _ in range(60):
            p = random_poly(rng, ctx)
            q = random_poly(rng, ctx)
            r = random_poly(rng, ctx)
            assert ((p * q) * r - p * (q * r)).is_zero()

    def test_leibniz_odd_derivative(self):
        ctx = make_context(2)
        rng = random.Random(5)
        v = ctx.jet("q1")
        for _ in range(60):
            for pa in (EVEN, ODD):
                a = random_poly(rng, ctx, parity=pa)
                b = random_poly(rng, ctx)
                lhs = (a * b).deriv(v)
                rhs = a.deriv(v) * b + ((-1) ** pa) * (a * b.deriv(v))
                assert (lhs - rhs).is_zero()

    def test_odd_derivatives_anticommute(self):
        ctx = make_context(2)
        rng = random.Random(6)
        v, w = ctx.jet("q1"), ctx.jet("q2")
        for _ in range(60):
            p = random_poly(rng, ctx)
            assert (p.deriv(v).deriv(w) + p.deriv(w).deriv(v)).is_zero()
            assert p.deriv(v).deriv(v).is_zero()


class TestHousekeeping:
    def test_parity_parts(self):
        ctx = make_context(2)
        p = ctx.var("s1") + ctx.var("q1")
        assert p.parity() is None
        with pytest.raises(ParityError):
            p.require_parity()
        assert even_part(p) + odd_part(p) == p

    def test_ghost_and_antifield_numbers(self, ctx):
        p = ctx.var("c1") * ctx.var("c2")
        assert p.ghost_numbers() == {2}
        assert antifield_numbers(p) == {-2}

    def test_substitute_even(self):
        ctx = make_context(1)
        s1, s2 = ctx.var("s1"), ctx.var("s2")
        p = s1 * s1 + 2 * s1
        assert p.substitute({ctx.jet("s1"): s2 + ctx.one()}) == \
            (s2 + ctx.one()) * (s2 + ctx.one()) + 2 * (s2 + ctx.one())

    def test_substitute_odd_sign(self):
        ctx = make_context(1, odds=3)
        q1, q2, q3 = ctx.var("q1"), ctx.var("q2"), ctx.var("q3")
        p = q1 * q2
        assert p.substitute({ctx.jet("q2"): q3}) == q1 * q3
        assert p.substitute({ctx.jet("q1"): q3}) == q3 * q2

    def test_substitute_mapping_matches_sequential(self):
        ctx = make_context(2, evens=3, odds=4)
        rng = random.Random(57)
        targets = [ctx.jet("s1"), ctx.jet("q1"), ctx.jet("q3", (0,))]

        def free(p):
            """The terms of `p` without a target, so the order of
            one-variable substitutions cannot matter."""
            return Poly(ctx, {m: c for m, c in p.terms.items()
                              if not Poly(ctx, {m: c}).variables() & set(targets)},
                        p.den).finish()

        # two odd targets around an unreplaced odd factor, and a square
        both = ctx.product(Fraction(3, 2), [targets[0], targets[0], targets[1],
                                            ctx.jet("q2"), targets[2]])
        assert len(both.terms) == 1
        for _ in range(30):
            p = random_poly(rng, ctx, terms=6) + both
            mapping = {v: free(random_poly(rng, ctx, terms=3, parity=v.parity))
                       for v in targets}
            for order in (targets, targets[::-1]):
                seq = p
                for v in order:
                    seq = seq.substitute({v: mapping[v]})
                assert p.substitute(mapping) == seq
        q1, q2, q3, q4 = (ctx.var("q%d" % k) for k in range(1, 5))
        assert (q1 * q2 * q3).substitute({ctx.jet("q1"): q4, ctx.jet("q3"): q1}) == \
            q4 * q2 * q1

    def test_substitute_is_simultaneous(self):
        ctx = make_context(1)
        s1, s2, q1, q2 = ctx.var("s1"), ctx.var("s2"), ctx.var("q1"), ctx.var("q2")
        p = s1 * s1 * s2 + 3 * s1
        swap = {ctx.jet("s1"): s2, ctx.jet("s2"): s1}
        assert p.substitute(swap) == s2 * s2 * s1 + 3 * s2
        swap = {ctx.jet("q1"): q2, ctx.jet("q2"): q1}
        assert (s1 * q1 * q2).substitute(swap) == -(s1 * q1 * q2)

    def test_substitute_keeps_parity(self):
        ctx = make_context(1)
        s1, s2, q1 = ctx.var("s1"), ctx.var("s2"), ctx.var("q1")
        for repl in (q1, s2 + q1):
            with pytest.raises(ParityError):
                (s1 * s2).substitute({ctx.jet("s1"): repl})
        assert (s1 * s2).substitute({ctx.jet("s1"): ctx.zero()}).is_zero()
        assert (s1 * s2).substitute({}) == s1 * s2

    def test_jet_order_cap(self):
        ctx = make_context(2, max_jet_order=2)
        ctx.jet("s1", (0, 1))
        with pytest.raises(JetOrderError):
            ctx.jet("s1", (0, 1, 1))

    def test_term_limit(self):
        ctx = Context(1, term_limit=4)
        ctx.add_generator("s", "even-field", EVEN)
        ctx.add_generator("t", "even-field", EVEN)
        s, t = ctx.var("s"), ctx.var("t")
        p = ctx.one() + s
        with pytest.raises(ExpansionLimitError):
            big = p
            for k in range(10):
                big = big * p
        # every rewritten term stays small; their sum passes the limit
        q = s + t + t * t + t * t * t
        with pytest.raises(ExpansionLimitError):
            q.substitute({ctx.jet("s"): t ** 4 + t ** 5})

    def test_term_limit_bounds_subtraction(self):
        ctx = Context(1, term_limit=3)
        ctx.add_generator("s", "even-field", EVEN)
        s = ctx.var("s")
        out = ctx.zero()
        with pytest.raises(ExpansionLimitError):
            for k in range(1, 7):
                out = out - s ** k
        assert len(out.terms) == 3

    def test_coordinates_carry_no_index(self):
        ctx = Context(2)
        with pytest.raises(GvcError):
            ctx.jet("x0", (1,))

    def test_render_is_canonical(self, ctx):
        p = ctx.var("c2") * ctx.var("c1") + ctx.var("s")
        assert p.render() == "-c1*c2 +s"
        assert p.leading_monomial() == "-c1*c2"
        assert ctx.zero().render() == "0"


def _old_mono_mul(m1, m2):
    """The former product: even parts merged through a dict and a sort."""
    (ev1, od1), (ev2, od2) = m1, m2
    merged = dict(ev1)
    for v, e in ev2:
        merged[v] = merged.get(v, 0) + e
    ev = tuple(sorted(merged.items(), key=lambda it: it[0].key))
    letters = list(od1) + list(od2)
    if len({v.key for v in letters}) < len(letters):
        return None
    sign, _ = bubble_sign([v.key for v in letters])
    return sign, (ev, tuple(sorted(letters, key=lambda v: v.key)))


class TestMonoMul:
    """Monomial products, taken by `add_product` on one-term polynomials."""

    def test_matches_dict_and_sort_merge(self):
        ctx = make_context(2, evens=3, odds=3)
        rng = random.Random(41)
        evens = [ctx.jet(g, idx) for g in ("s1", "s2", "s3")
                 for idx in ((), (0,), (1,), (0, 1))] + list(ctx.coordinates)
        pool = evens + [ctx.jet(g, idx) for g in ("q1", "q2", "q3")
                        for idx in ((), (0,), (1,), (0, 1))]

        def monomial():
            # distinct factors plus repeated even ones, so powers above 1 occur
            factors = rng.sample(pool, rng.randint(0, 5)) + rng.choices(evens, k=rng.randint(0, 2))
            return next(iter(ctx.product(1, factors).terms))

        shared = interleaved = 0
        for _ in range(600):
            m1, m2 = monomial(), monomial()
            want = _old_mono_mul(m1, m2)
            got = add_product(ctx.zero(), Poly(ctx, {m1: 1}), Poly(ctx, {m2: 1}))
            assert got.terms == ({} if want is None else {want[1]: want[0]})
            keys1 = [v.key for v, _ in m1[0]]
            keys2 = [v.key for v, _ in m2[0]]
            shared += bool(set(keys1) & set(keys2))
            interleaved += bool(keys1 and keys2 and min(keys2) < max(keys1)
                                and min(keys1) < max(keys2))
        assert shared > 50 and interleaved > 100


def _add_times_paths(left, right, counts):
    """Count the branch `add_times` takes for the monomial `left` times
    `right`: the 1x1 odd words in either order or a shared odd letter,
    then a one-factor even part on the right or the left (the same
    variable, inserted inside, appended), or a merge of wider ones
    (concatenated either way, or interleaved)."""
    (evv, odv), (evr, odr) = left, right
    if set(odv) & set(odr):
        counts["odd-shared"] += 1
        return
    if len(odv) == len(odr) == 1:
        counts["odd-1x1-" + ("before" if odv[0].key < odr[0].key else "after")] += 1
    for side, one, other in (("right", evr, evv), ("left", evv, evr)):
        if len(one) == 1 and other and (side == "right" or len(other) > 1):
            x = one[0][0]
            keys = [u.key for u, _ in other]
            where = ("same" if x.key in keys else
                     "inside" if keys[-1] > x.key else "appended")
            counts["%s-%s" % (side, where)] += 1
            return
    if len(evv) > 1 and len(evr) > 1:
        where = ("before" if evv[-1][0].key < evr[0][0].key else
                 "after" if evr[-1][0].key < evv[0][0].key else "interleaved")
        counts["merge-" + where] += 1


ADD_TIMES_PATHS = ["swapped", "odd-shared", "odd-1x1-before", "odd-1x1-after"] + [
    "%s-%s" % (side, where) for side in ("right", "left")
    for where in ("same", "inside", "appended")] + [
    "merge-before", "merge-after", "merge-interleaved"]


class TestAddProduct:
    """The one-loop product against the per-pair oracle of tests/util.py,
    summed into a polynomial that already holds terms."""

    def test_matches_oracle(self):
        ctx = make_context(2, evens=2, odds=3)
        rng = random.Random(44)
        shared_odd = cancelled = fractional = rescaled = 0
        paths = dict.fromkeys(ADD_TIMES_PATHS, 0)
        for _ in range(200):
            p = random_poly(rng, ctx, terms=rng.randint(0, 5), max_order=1)
            q = random_poly(rng, ctx, terms=rng.randint(0, 5), max_order=1)
            head = oracle_poly(ctx, dict(list(oracle_coeffs(q).items())
                                         [:rng.randint(0, len(q.terms))]))
            for sign in (1, -1):
                # the sum starts with minus the product of a part of q,
                # which the sum cancels
                base = oracle_add_product({}, p, head, -sign)
                out = oracle_poly(ctx, base)
                den = out.den
                assert add_product(out, p, q, sign) is out
                rescaled += out.den != den
                assert out.finish().coeffs() == oracle_add_product(dict(base), p, q, sign)
                assert_normal(out)
                cancelled += bool(set(base) - set(out.terms))
                fractional += out.den != 1
            shared_odd += any(set(m1[1]) & set(m2[1]) for m1 in p.terms for m2 in q.terms)
            # a p of one monomial swaps with q, even or parity-homogeneous:
            # q's terms are the items
            swap = len(p.terms) == 1 < len(q.terms) and (
                not len(next(iter(p.terms))[1]) & 1 or q.parity() is not None)
            paths["swapped"] += swap
            for m1 in p.terms:
                for m2 in q.terms:
                    _add_times_paths(*((m2, m1) if swap else (m1, m2)), paths)
            assert add_product(add_product(ctx.zero(), p, q), p, q, -1).finish() == ctx.zero()
        assert shared_odd > 20 and cancelled > 20 and fractional > 20 and rescaled > 20
        assert all(paths.values()), paths

    @pytest.mark.parametrize("q_parity", [EVEN, ODD, None])
    def test_odd_monomial_swaps_with_a_homogeneous_q(self, q_parity, monkeypatch):
        """An odd one-monomial p against an even, odd or mixed q: one
        `add_times` call takes all of a homogeneous q, with the sign of
        the swap, and a mixed q keeps one call per term."""
        ctx = make_context(2, evens=2, odds=3)
        rng = random.Random(45)
        calls = []
        add_times = gvc.grassmann.add_times
        monkeypatch.setattr(gvc.grassmann, "add_times", lambda terms, items, *rest: (
            calls.append(items), add_times(terms, items, *rest)))
        checked = 0
        for _ in range(300):
            p = random_poly(rng, ctx, terms=1, max_order=1, parity=ODD)
            q = random_poly(rng, ctx, terms=rng.randint(2, 5), max_order=1,
                            parity=q_parity)
            if len(p.terms) != 1 or len(q.terms) < 2 or q.parity() != q_parity:
                continue
            start = random_poly(rng, ctx, terms=2, dens=(1, 2, 3))
            for sign in (1, -1):
                del calls[:]
                out = add_product(Poly(ctx, dict(start.terms), start.den), p, q, sign)
                want = oracle_add_product(oracle_coeffs(start), p, q, sign)
                assert out.finish().coeffs() == want
                assert len(calls) == (len(q.terms) if q_parity is None else 1)
            checked += 1
        assert checked > 20

    def test_term_limit(self):
        ctx = make_context(2)
        rng = random.Random(46)
        p, q = random_poly(rng, ctx, terms=4), random_poly(rng, ctx, terms=4)
        n = len(add_product(ctx.zero(), p, q).terms)
        ctx.term_limit = n
        add_product(ctx.zero(), p, q, -1)
        ctx.term_limit = n - 1
        for sign in (1, -1):
            with pytest.raises(ExpansionLimitError):
                add_product(ctx.zero(), p, q, sign)


class TestFractionFree:
    """The kernel on coefficients with denominators 2, 3 and 6 mixed with
    integers, against the `Fraction` oracles of tests/util.py, and the
    normal form of numerators over one denominator."""

    DENS = (1, 1, 2, 3, 6)

    def test_kernel_matches_oracles(self):
        ctx = make_context(2, evens=2, odds=3)
        rng = random.Random(61)
        dens = set()
        for _ in range(120):
            p = random_poly(rng, ctx, terms=rng.randint(0, 5), max_order=1, dens=self.DENS)
            q = random_poly(rng, ctx, terms=rng.randint(0, 4), max_order=1, dens=self.DENS)
            start = oracle_coeffs(random_poly(rng, ctx, terms=3, max_order=1, dens=self.DENS))
            sign = rng.choice((1, -1))
            got = add_product(oracle_poly(ctx, start), p, q, sign).finish()
            assert got.coeffs() == oracle_add_product(dict(start), p, q, sign)
            assert_normal(got)
            lam = rng.randrange(ctx.dim)
            got = add_total_derivative(oracle_poly(ctx, start), lam, p, sign).finish()
            assert got.coeffs() == oracle_add_total_derivative(dict(start), lam, p, sign)
            assert_normal(got)
            for side in ("left", "right"):
                partials = dict(p.partials(side))
                assert set(partials) == {v for v in p.variables()
                                         if oracle_partial(p, v, side)}
                for v, d in partials.items():
                    assert d.coeffs() == oracle_partial(p, v, side)
                    assert_normal(d)
            targets = sorted(p.variables(), key=lambda v: v.key)[:2]
            mapping = {v: random_poly(rng, ctx, terms=2, max_order=1, parity=v.parity,
                                      dens=self.DENS) for v in targets}
            got = p.substitute(mapping)
            assert got.coeffs() == oracle_substitute(p, mapping)
            assert_normal(got)
            dens.update((p.den, q.den))
        assert {1, 2, 3, 6} <= dens

    def test_normal_form(self, ctx):
        s = ctx.var("s")
        sixth = s * Fraction(1, 6)
        assert sixth.den == 6 and sixth.terms == {(((ctx.jet("s"), 1),), ()): 1}
        total = sixth + s * Fraction(1, 3)
        assert total == s * Fraction(1, 2)
        # equal numerators over different denominators are different
        assert total.terms == s.terms and total != s and total != sixth
        assert total.den == 2 and list(total.terms.values()) == [1]
        square = (s * Fraction(1, 2)) * (s * 2)
        assert square.den == 1 and square == s * s
        gone = s * Fraction(1, 6) + s * Fraction(1, 3) - s * Fraction(1, 2)
        assert gone.is_zero() and gone.den == 1 and gone == ctx.zero()
        acc = add_product(ctx.zero(), s * Fraction(1, 6), ctx.one())
        add_product(acc, s * Fraction(-1, 6), ctx.one())
        assert acc.finish().den == 1 and acc.is_zero()
        for p in (total, square, gone, sixth * 3 - s * Fraction(1, 2) + s * ctx.var("c1")):
            assert_normal(p)

    def test_term_limit_on_the_rational_path(self):
        ctx = make_context(2)
        rng = random.Random(62)
        p = random_poly(rng, ctx, terms=4, dens=(2, 3))
        q = random_poly(rng, ctx, terms=4, dens=(3, 6))
        assert p.den != 1 and q.den != 1
        n = len((p * q).terms)
        m = len(total_derivative(0, p).terms)
        ctx.term_limit = min(n, m) - 1
        with pytest.raises(ExpansionLimitError):
            add_product(ctx.zero(), p, q)
        with pytest.raises(ExpansionLimitError):
            add_total_derivative(ctx.scalar(Fraction(1, 5)), 0, p)
        with pytest.raises(ExpansionLimitError):
            p * q


class TestExactCoefficients:
    """Numerators are ints over one normalised denominator, and `coeffs`
    and `constant_term` give an int whenever a coefficient is integral."""

    def test_exact(self):
        two = exact(Fraction(4, 2))
        assert two == 2 and type(two) is int
        half = exact(Fraction(1, 2))
        assert half == Fraction(1, 2) and type(half) is Fraction
        for value, want in ((True, 1), (False, 0), (2.0, 2), (-3, -3)):
            got = exact(value)
            assert got == want and type(got) is int
        assert exact(0.5) == Fraction(1, 2) and type(exact(0.5)) is Fraction
        assert exact(0.1) == Fraction(0.1)
        assert exact("3/6") == Fraction(1, 2)
        # a numerator over a denominator, as a polynomial stores it
        assert exact(4, 2) == 2 and type(exact(4, 2)) is int
        assert exact(-3, 6) == Fraction(-1, 2) and exact(0, 6) == 0 and type(exact(0, 6)) is int
        with pytest.raises(TypeError):
            exact(object())

    def test_entry_points_are_canonical(self, ctx):
        s = ctx.var("s")
        for p in (ctx.scalar(Fraction(6, 3)), ctx.scalar(True), s * Fraction(4, 2),
                  s * 2.0, Fraction(4, 2) * s, ctx.product(Fraction(2, 1), ["s"]),
                  ctx.product(Fraction(1, 2), ["s"]) * 4):
            (c,) = p.terms.values()
            assert (c == 2 or c == 1) and type(c) is int and p.den == 1
            (c,) = p.coeffs().values()
            assert type(c) is int
        for p in (ctx.scalar(Fraction(6, 4)), ctx.scalar(0.75), s * Fraction(-9, 6),
                  Fraction(3, 2) * s, ctx.product(Fraction(9, 6), ["s"]),
                  ctx.product(Fraction(1, 2), ["s"]) * 3, s * "3/6"):
            assert_normal(p)
            assert p.den in (2, 4)
            (c,) = p.coeffs().values()
            assert type(c) is Fraction and abs(c) in (Fraction(3, 2), Fraction(3, 4),
                                                      Fraction(1, 2))
        assert type(ctx.zero().constant_term()) is int and ctx.zero().den == 1
        assert ctx.scalar(0.0) == ctx.zero() and ctx.scalar(Fraction(0, 7)).den == 1
        assert type(ctx.var("c1").terms[((), (ctx.jet("c1"),))]) is int
        # an integral coefficient of a non-integral polynomial reads as an int
        p = ctx.scalar(2) + s * Fraction(1, 2)
        assert p.den == 2 and p.terms[((), ())] == 4
        assert p.constant_term() == 2 and type(p.constant_term()) is int
        assert sorted(map(type, p.coeffs().values()), key=str) == [Fraction, int]
        assert p.render() == "2 +1/2*s"

    def test_sums_and_products_end_as_int(self, ctx):
        half = ctx.scalar(Fraction(1, 2))
        total = half + half
        assert total.terms == {((), ()): 1} and total.den == 1
        assert type(total.constant_term()) is int
        s = ctx.var("s")
        p = s * Fraction(1, 2) + s * Fraction(1, 2)
        assert p.den == 1 and all(type(c) is int for c in p.coeffs().values())
        q = (s * Fraction(1, 2)) * (ctx.scalar(2) * s)
        assert q == s * s and q.den == 1
        d = s * Fraction(3, 2) - s * Fraction(1, 2)
        assert d.terms == s.terms and d.den == 1 and d == s
        # the power rule and the raised-jet rule multiply by an exponent
        square = (s * s) * Fraction(1, 2)
        assert square.den == 2
        d = square.deriv(ctx.jet("s"))
        assert d == s and d.den == 1 and type(next(iter(d.coeffs().values()))) is int
        t = total_derivative(0, square)
        assert t == s * ctx.var("s", 0) and t.den == 1
        (v, dv), = square.partials()
        assert dv == s and dv.den == 1
        assert (square.substitute({ctx.jet("s"): s * 2})) == s * s * 2
        third = s * Fraction(1, 3)
        two_thirds = third + third
        assert two_thirds.den == 3 and list(two_thirds.terms.values()) == [2]
        assert all(type(c) is Fraction and c.denominator != 1
                   for c in two_thirds.coeffs().values())
        for p in (total, p, q, d, square, t, two_thirds, even_part(third),
                  odd_part(third + ctx.var("c1") * ctx.var("c2") * Fraction(2, 3))):
            assert_normal(p)


class TestRename:
    """`relabel` (tests/util.py), the signed relabelling by `Poly.substitute`
    that the algebra-map tests apply, against the `Fraction` oracle's
    substitution and against a bubble-sort sign of each odd word, under
    random parity-preserving permutations of generators."""

    @staticmethod
    def _relabelling(rng, ctx):
        gen_map = {}
        for parity in (EVEN, ODD):
            group = [g for g in field_generators(ctx) if g.parity == parity]
            gen_map.update(zip(group, rng.sample(group, len(group))))
        return gen_map

    @staticmethod
    def _image(ctx, gen_map, v):
        return ctx.jet(gen_map.get(v.gen, v.gen), v.index)

    def _cases(self, seed):
        ctx = make_context(3, evens=3, odds=4)
        rng = random.Random(seed)
        for _ in range(60):
            # products make odd words of three letters and more
            p = random_poly(rng, ctx, terms=3, dens=(1, 2, 3)) * random_poly(rng, ctx, terms=3)
            gen_map = self._relabelling(rng, ctx)
            yield ctx, p, gen_map, lambda v: self._image(ctx, gen_map, v)

    def test_matches_substitution(self):
        long_words = 0
        for ctx, p, gen_map, image in self._cases(1406):
            mapping = {v: ctx.var(image(v).gen, *image(v).index) for v in p.variables()}
            got = relabel(p, gen_map, {})
            assert_normal(got)
            assert got.coeffs() == oracle_substitute(p, mapping)
            assert got == p.substitute(mapping)
            long_words += any(len(od) >= 3 for _, od in p.terms)
        assert long_words > 20

    def test_odd_sign_is_the_inversion_count(self):
        flips = 0
        for ctx, p, gen_map, image in self._cases(6318):
            got = relabel(p, gen_map, {})
            assert len(got.terms) == len(p.terms) and got.den == p.den
            for (ev, od), c in p.terms.items():
                letters = {image(v).key: image(v) for v in od}
                sign, keys = bubble_sign([image(v).key for v in od])
                even = tuple(sorted(((image(v), e) for v, e in ev), key=lambda it: it[0].key))
                assert got.terms[(even, tuple(letters[k] for k in keys))] == sign * c
                flips += sign == -1
        assert flips > 20

    @staticmethod
    def _signs(rng, ctx):
        return {g: rng.choice((1, -1)) for g in field_generators(ctx)}

    def test_signed_matches_substitution(self):
        rng = random.Random(2718)
        negated = set()
        for ctx, p, gen_map, image in self._cases(1406):
            signs = self._signs(rng, ctx)
            mapping = {v: ctx.var(image(v).gen, *image(v).index) * signs.get(v.gen, 1)
                       for v in p.variables()}
            got = relabel(p, gen_map, signs)
            assert_normal(got)
            assert got.coeffs() == oracle_substitute(p, mapping)
            assert got == p.substitute(mapping)
            negated.update(v.gen.parity for v in p.variables() if signs.get(v.gen) == -1)
        assert negated == {EVEN, ODD}

    def test_signed_sign_is_inversions_times_factor_signs(self):
        rng = random.Random(31)
        long_negated = 0
        for ctx, p, gen_map, image in self._cases(6318):
            signs = self._signs(rng, ctx)
            got = relabel(p, gen_map, signs)
            for (ev, od), c in p.terms.items():
                letters = {image(v).key: image(v) for v in od}
                sign, keys = bubble_sign([image(v).key for v in od])
                for v, e in list(ev) + [(v, 1) for v in od]:
                    sign *= signs.get(v.gen, 1) ** e
                even = tuple(sorted(((image(v), e) for v, e in ev), key=lambda it: it[0].key))
                assert got.terms[(even, tuple(letters[k] for k in keys))] == sign * c
                long_negated += len(od) >= 3 and any(signs[v.gen] == -1 for v in od)
        assert long_negated > 20
