"""Acceptance suite: one test per criterion, each printing a pass line.

Every identity is exact; there are no tolerances anywhere.  The field
equation oracle below expands the total derivative monomial by monomial
through the product rule, so it shares no assembly code with the
variational routes it checks.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from gvc import EVEN, Lagrangian, ODD
from gvc.bicomplex import d_h, d_v, euler_lagrange, variational_delta
from gvc.grassmann import normalize
from gvc.models import GaugeModel, Metric
from gvc.presets import osp12_algebra, preset_model
from gvc.superlie import LieSuperalgebra, check_structure
from gvc.brst import nilpotency_residuals, noether_residuals

from util import (make_context, mass_term_lagrangian, random_form, random_poly, su2_algebra,
                  sym_quadratic_lagrangian)

GOLDEN = Path(__file__).parent / "golden"


def report(criterion, label):
    print("ACCEPTANCE %s [%s]: PASS" % (criterion, label))


# -- 1: bicomplex nilpotency --------------------------------------------------

def test_criterion_1_bicomplex_nilpotency():
    t0 = time.monotonic()
    rng = random.Random(101)
    count = 0
    for dim in (2, 3, 4):
        ctx = make_context(dim, evens=2, odds=2)
        for _ in range(40):
            phi = random_form(rng, ctx, rng.randint(0, 2), rng.randint(0, dim - 1),
                              max_order=3, coeff_order=3)
            assert d_h(d_h(phi)).is_zero()
            assert d_v(d_v(phi)).is_zero()
            assert (d_h(d_v(phi)) + d_v(d_h(phi))).is_zero()
            count += 1
    for dim in (2, 3):
        ctx = make_context(dim, evens=2, odds=2)
        for _ in range(20):
            top = random_form(rng, ctx, rng.randint(0, 1), dim, max_order=2)
            assert variational_delta(variational_delta(top)).is_zero()
            count += 1
        for _ in range(20):
            xi = random_form(rng, ctx, 0, dim - 1, max_order=2)
            assert variational_delta(d_h(xi)).is_zero()
            count += 1
    elapsed = time.monotonic() - t0
    assert count >= 200
    assert elapsed < 60.0
    report(1, "bicomplex nilpotency, %d forms, %.1fs" % (count, elapsed))


# -- 2: field equation oracle --------------------------------------------------

def oracle_total_derivative(lam, p):
    """Product-rule expansion of the total derivative, factor by factor."""
    ctx = p.ctx
    out = ctx.zero()
    for (ev, od), coeff in p.coeffs().items():
        factors = []
        for v, e in ev:
            factors.extend([v] * e)
        factors.extend(od)
        for i, v in enumerate(factors):
            if v.gen.kind == "coordinate":
                if v is ctx.coordinate(lam):
                    rest = factors[:i] + factors[i + 1:]
                    out = out + normalize(ctx, coeff, rest)
            else:
                raised = ctx.jet(v.gen, v.index + (lam,))
                repl = factors[:i] + [raised] + factors[i + 1:]
                out = out + normalize(ctx, coeff, repl)
    return out


def oracle_field_equations(L):
    """Alternating-sign integration by parts, independent of the engine."""
    density = L.density
    ctx = L.ctx
    comps = {}
    for v in sorted(density.variables(), key=lambda u: u.key):
        if v.gen.kind == "coordinate":
            continue
        term = density.deriv(v)
        for lam in v.index:
            term = oracle_total_derivative(lam, term)
        if len(v.index) % 2:
            term = -term
        cur = comps.get(v.gen)
        comps[v.gen] = term if cur is None else cur + term
    return comps


def test_criterion_2_field_equation_oracle():
    rng = random.Random(102)
    checked = 0
    for dim in (1, 2, 3):
        ctx = make_context(dim, evens=2, odds=2)
        for _ in range(20):
            density = random_poly(rng, ctx, terms=4, max_order=2)
            L = Lagrangian(density)
            expected = oracle_field_equations(L)
            got = euler_lagrange(L)
            gens = set(expected) | set(got.components)
            for g in gens:
                want = expected.get(g, ctx.zero())
                assert (got.component(g) - want).is_zero()
            assert variational_delta(L.form) == got.as_form()
            checked += 1
    assert checked >= 50
    report(2, "field equation oracle, %d densities" % checked)


# -- 3: ordinary Yang-Mills end to end -----------------------------------------

def test_criterion_3_yang_mills_end_to_end():
    t0 = time.monotonic()
    model = preset_model("su2")
    rep = model.full_verification(deterministic=True)
    by_name = {r.name: r for r in rep.results}
    for name in ("parameter-symmetry",          # (a) exact gauge symmetry
                 "noether-identities",          # (b)
                 "euler-lagrange-two-path",     # (c)
                 "superpotential",              # (d)
                 "koszul-tate",                 # (e)
                 "brst-nilpotency",             # (f)
                 "master-equation"):            # (g)
        assert by_name[name].ok, by_name[name].line()
    assert rep.ok
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(3, "su(2) end to end, %.1fs" % elapsed)


# -- 4: graded Yang-Mills end to end --------------------------------------------

def test_criterion_4_graded_yang_mills_end_to_end():
    t0 = time.monotonic()
    alg = osp12_algebra()
    assert sum(1 for p in alg.parities if p == EVEN) <= 3
    assert sum(1 for p in alg.parities if p == ODD) <= 2
    # brute-force the bracket axioms over every basis triple first
    par = alg.parities
    for i in range(alg.dim):
        for a in range(alg.dim):
            for b in range(alg.dim):
                for r in range(alg.dim):
                    total = Fraction(0)
                    for j in range(alg.dim):
                        total += ((-1) ** (par[i] * par[b])) \
                            * alg.constant(r, i, j) * alg.constant(j, a, b)
                        total += ((-1) ** (par[a] * par[i])) \
                            * alg.constant(r, a, j) * alg.constant(j, b, i)
                        total += ((-1) ** (par[b] * par[a])) \
                            * alg.constant(r, b, j) * alg.constant(j, i, a)
                    assert total == 0
    model = preset_model("osp12")
    rep = model.full_verification(deterministic=True)
    by_name = {r.name: r for r in rep.results}
    for name in ("gauge-symmetry", "noether-identities", "brst-nilpotency",
                 "master-equation"):
        assert by_name[name].ok, by_name[name].line()
    assert rep.ok
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(4, "graded end to end, %.1fs" % elapsed)


# -- 5: mutation sensitivity -----------------------------------------------------

def _mutations(base_factory):
    """All canonical single-constant +1 perturbations of an algebra."""
    base = base_factory()
    out = []
    for r in range(base.dim):
        for i in range(base.dim):
            for j in range(i, base.dim):
                if i == j and base.parities[i] == EVEN:
                    continue
                alg = LieSuperalgebra(base.labels, base.parities)
                for rr in range(base.dim):
                    for ii in range(base.dim):
                        for jj in range(ii, base.dim):
                            value = base.constant(rr, ii, jj)
                            if (rr, ii, jj) == (r, i, j):
                                value += 1
                            if value:
                                alg.set_constant(rr, ii, jj, value)
                for ii in range(base.dim):
                    for jj in range(ii, base.dim):
                        value = base.form(ii, jj)
                        if value:
                            alg.set_form(ii, jj, value)
                out.append(((r, i, j), alg))
    return out


def _detect(alg, metric):
    """First failing detector and its witness, or None if all pass."""
    structure = check_structure(alg)
    if not structure.ok:
        return "jacobi", structure.describe()
    model = GaugeModel(alg, metric)
    L = model.ym_lagrangian(validate=False)
    res = noether_residuals(model.noether_operator(), euler_lagrange(L))
    bad = {k: p for k, p in res.items() if not p.is_zero()}
    if bad:
        label = sorted(bad)[0]
        return "noether", "%s: %s" % (label, bad[label].leading_monomial())
    s_res = nilpotency_residuals(model.brst_operator())
    bad = {k: p for k, p in s_res.items()
           if not p.is_zero() and model.ctx.generator(k).kind == "ghost"}
    if bad:
        label = sorted(bad)[0]
        return "brst-ghost", "%s: %s" % (label, bad[label].leading_monomial())
    return None


def test_criterion_5_mutation_sensitivity():
    cases = [(su2_algebra, Metric.from_signature("+---"), 9),
             (osp12_algebra, Metric.from_signature("+-"), 60)]
    total = 0
    for factory, metric, expected_count in cases:
        mutations = _mutations(factory)
        assert len(mutations) == expected_count
        for key, alg in mutations:
            hit = _detect(alg, metric)
            assert hit is not None, "mutation %r escaped detection" % (key,)
            kind, witness = hit
            assert witness and witness != "-"
            total += 1
    report(5, "mutation sensitivity, %d/%d detected" % (total, total))


# -- 6: invariance-condition discrimination ----------------------------------------

def test_criterion_6_utiyama_discrimination():
    model = preset_model("su2")
    sym, fld, contr = model.invariance_conditions()
    assert all(p.is_zero() for p in sym.values())
    assert all(p.is_zero() for p in fld.values())
    assert all(p.is_zero() for p in contr.values())
    sym, fld, contr = model.invariance_conditions(mass_term_lagrangian(model))
    assert all(p.is_zero() for p in sym.values())
    assert any(not p.is_zero() for p in fld.values())
    assert all(p.is_zero() for p in contr.values())
    sym, fld, contr = model.invariance_conditions(sym_quadratic_lagrangian(model))
    assert any(not p.is_zero() for p in sym.values())
    assert all(p.is_zero() for p in fld.values())
    assert all(p.is_zero() for p in contr.values())
    report(6, "invariance-condition discrimination")


# -- 7: kernel property tests --------------------------------------------------------

def test_criterion_7_kernel_properties():
    rng = random.Random(107)
    ctx = make_context(3, evens=2, odds=3)
    cases = 0
    odd_vars = [ctx.jet("q1"), ctx.jet("q2"), ctx.jet("q3")]
    for _ in range(260):
        pp, qp = rng.randint(0, 1), rng.randint(0, 1)
        p = random_poly(rng, ctx, parity=pp)
        q = random_poly(rng, ctx, parity=qp)
        sign = -1 if (pp and qp) else 1
        assert (p * q - sign * (q * p)).is_zero()
        cases += 1

        r = random_poly(rng, ctx)
        assert ((p * q) * r - p * (q * r)).is_zero()
        cases += 1

        v = rng.choice(odd_vars)
        a = random_poly(rng, ctx, parity=pp)
        b = random_poly(rng, ctx)
        lhs = (a * b).deriv(v)
        rhs = a.deriv(v) * b + ((-1) ** pp) * (a * b.deriv(v))
        assert (lhs - rhs).is_zero()
        cases += 1

        w = rng.choice(odd_vars)
        f = random_poly(rng, ctx)
        assert (f.deriv(v).deriv(w) + f.deriv(w).deriv(v)).is_zero()
        assert f.deriv(v).deriv(v).is_zero()
        cases += 2
    assert cases >= 1000
    report(7, "kernel properties, %d cases" % cases)


# -- 8: CLI determinism -----------------------------------------------------------------

def test_criterion_8_cli_determinism(tmp_path, capsys):
    from gvc.cli import main

    for name in ("abelian", "su2", "osp12"):
        model_path = GOLDEN / ("%s.model" % name)
        golden_path = GOLDEN / ("%s.txt" % name)
        assert model_path.exists() and golden_path.exists()
        outputs = []
        for _ in range(2):
            code = main(["full", "--model", str(model_path), "--deterministic"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0] == golden_path.read_text(encoding="utf-8")
    report(8, "byte-stable reports for three presets")
