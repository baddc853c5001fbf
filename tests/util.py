"""Shared helpers for the test suite: deterministic random polynomials
and forms over small field contents."""

import contextlib
import itertools
import math
import random
from fractions import Fraction
from math import gcd

from gvc import ContactDerivation, Context, EVEN, Lagrangian, LieSuperalgebra, ODD
from gvc.bicomplex import (DX, TH, Form, _add_letter_wedge, _contract_word, _form,
                           _letter_parity, _normal_word, d_h, dx_letter, h0, interior,
                           lepage_equivalent, lie_derivative, theta_letter, variational_delta)
from gvc.grassmann import Poly
from gvc.jets import iterated_derivative, prolong_apply, total_derivative
from gvc.models import GaugeModel


def make_context(dim, evens=2, odds=2, max_jet_order=None):
    ctx = Context(dim, max_jet_order=max_jet_order)
    for i in range(evens):
        ctx.add_generator("s%d" % (i + 1), "even-field", EVEN)
    for i in range(odds):
        ctx.add_generator("q%d" % (i + 1), "odd-field", ODD)
    return ctx


def field_generators(ctx):
    return [g for g in ctx.generators.values() if g.kind != "coordinate"]


def random_jet(rng, ctx, gen, max_order):
    order = rng.randint(0, max_order)
    index = tuple(rng.randrange(ctx.dim) for _ in range(order))
    return ctx.jet(gen, index)


def random_monomial(rng, ctx, max_order=2, allow_coords=True, dens=None, gens=None):
    """One normal monomial as (coefficient, factor list) over jets of
    `gens` (every non-coordinate generator when None); the coefficient's
    denominator is 1 or 2, or one of `dens` when given."""
    den = rng.randint(1, 2) if dens is None else rng.choice(dens)
    coeff = Fraction(rng.choice([1, -1]) * rng.randint(1, 3), den)
    factors = []
    gens = field_generators(ctx) if gens is None else gens
    evens = [g for g in gens if g.parity == EVEN]
    odds = [g for g in gens if g.parity == ODD]
    if allow_coords and rng.random() < 0.3:
        factors.append(ctx.coordinate(rng.randrange(ctx.dim)))
    for _ in range(rng.randint(0, 2)):
        if evens:
            factors.append(random_jet(rng, ctx, rng.choice(evens), max_order))
    odd_vars = set()
    for _ in range(rng.randint(0, 2)):
        if odds:
            v = random_jet(rng, ctx, rng.choice(odds), max_order)
            odd_vars.add(v)
    factors.extend(sorted(odd_vars, key=lambda v: v.key))
    return coeff, factors


def even_part(p):
    """The terms of `p` with an even number of odd letters."""
    return Poly(p.ctx, {m: c for m, c in p.terms.items() if not len(m[1]) % 2}, p.den).finish()


def odd_part(p):
    """The terms of `p` with an odd number of odd letters."""
    return Poly(p.ctx, {m: c for m, c in p.terms.items() if len(m[1]) % 2}, p.den).finish()


def antifield_numbers(p):
    """The antifield numbers of the terms of `p`."""
    return {sum(v.gen.antifield_number * e for v, e in ev)
            + sum(v.gen.antifield_number for v in od) for ev, od in p.terms}


def random_poly(rng, ctx, terms=3, max_order=2, parity=None, allow_coords=True,
                dens=None, gens=None):
    out = ctx.zero()
    for _ in range(terms):
        coeff, factors = random_monomial(rng, ctx, max_order, allow_coords, dens, gens)
        mono = ctx.product(coeff, factors)
        if parity is not None:
            mono = even_part(mono) if parity == EVEN else odd_part(mono)
        out = out + mono
    return out


def random_form(rng, ctx, contact, horizontal, terms=2, max_order=2,
                coeff_order=2):
    """Random form of the requested bidegree (zero is possible)."""
    out = Form.zero(ctx)
    gens = field_generators(ctx)
    for _ in range(terms):
        word_form = form_from_poly(
            random_poly(rng, ctx, terms=2, max_order=coeff_order))
        dxs = rng.sample(range(ctx.dim), horizontal)
        for lam in sorted(dxs):
            word_form = letter_wedge_left(dx_letter(lam), word_form)
        for _ in range(contact):
            v = random_jet(rng, ctx, rng.choice(gens), max_order)
            word_form = letter_wedge_left(theta_letter(v), word_form)
        out = out + word_form
    return out


def random_vertical(rng, ctx, parity, max_order=1):
    """Random vertical contact derivation of the given parity."""
    from gvc import ContactDerivation

    comps = {}
    for gen in field_generators(ctx):
        want = (gen.parity + parity) % 2
        p = random_poly(rng, ctx, terms=2, max_order=max_order, parity=want)
        if not p.is_zero():
            comps[gen] = p
    return ContactDerivation(ctx, comps, parity)


# -- kernel oracles -----------------------------------------------------------
#
# The kernel's operations on dicts of `Fraction` coefficients: a per-pair
# monomial product, a per-term stream of raised terms, a per-monomial
# partial and a factor-by-factor substitution, each summed by `oracle_sum`.
# They read a polynomial only through `oracle_coeffs` and share no code
# with the fraction-free kernel.  Variables are compared by key, not
# identity.


def oracle_coeffs(p):
    """The coefficients of `p` as Fractions: each numerator over `p.den`."""
    return {m: Fraction(c, p.den) for m, c in p.terms.items()}


def oracle_sum(out, items):
    """out += the (monomial, rational) pairs `items`, dropping the
    monomials that cancel; returns `out`."""
    for m, c in items:
        total = out.get(m, 0) + c
        if total:
            out[m] = total
        else:
            out.pop(m, None)
    return out


def oracle_poly(ctx, coeffs):
    """The Poly of a dict of rational coefficients: every numerator over
    the least common denominator, which is then in lowest terms."""
    den = 1
    for c in coeffs.values():
        den = den * c.denominator // gcd(den, c.denominator)
    return Poly(ctx, {m: int(c * den) for m, c in coeffs.items()}, den)


def assert_normal(p):
    """`p` is in the fraction-free normal form: nonzero int numerators over
    a positive int denominator that shares no factor with all of them, so
    the denominator is 1 exactly when every coefficient is integral."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c != 0 for c in p.terms.values())
    assert gcd(p.den, *p.terms.values()) == 1
    integral = all(Fraction(c, p.den).denominator == 1 for c in p.terms.values())
    assert (p.den == 1) == integral


def oracle_mono_mul(m1, m2):
    """Product of two normal monomials: (sign, monomial) or None if zero."""
    ev1, od1 = m1
    ev2, od2 = m2
    if ev2 and not ev1:
        ev = ev2
    elif not ev2:
        ev = ev1
    else:
        merged = []
        i = j = 0
        n1, n2 = len(ev1), len(ev2)
        while i < n1 and j < n2:
            x, y = ev1[i], ev2[j]
            if x[0] is y[0]:
                merged.append((x[0], x[1] + y[1]))
                i += 1
                j += 1
            elif y[0].key < x[0].key:
                merged.append(y)
                j += 1
            else:
                merged.append(x)
                i += 1
        ev = tuple(merged) + ev1[i:] + ev2[j:]
    if not od1:
        return 1, (ev, od2)
    if not od2:
        return 1, (ev, od1)
    od = []
    crossings = 0
    i = j = 0
    n1 = len(od1)
    while i < n1 and j < len(od2):
        a, b = od1[i], od2[j]
        if a.key == b.key:
            return None
        if a.key < b.key:
            od.append(a)
            i += 1
        else:
            od.append(b)
            crossings += n1 - i
            j += 1
    od.extend(od1[i:])
    od.extend(od2[j:])
    return (-1 if crossings & 1 else 1), (ev, tuple(od))


def _oracle_product_terms(a, b, sign):
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            prod = oracle_mono_mul(m1, m2)
            if prod is not None:
                s, m = prod
                yield m, c1 * c2 * s * sign


def oracle_add_product(out, p, q, sign=1):
    """out += sign * p * q for a dict of rational coefficients, through
    the per-pair product stream."""
    return oracle_sum(out, _oracle_product_terms(oracle_coeffs(p), oracle_coeffs(q), sign))


def _oracle_trade_even(ev, pos, e, r):
    out = list(ev)
    if e == 1:
        del out[pos]
    else:
        out[pos] = (out[pos][0], e - 1)
    for i, (u, f) in enumerate(out):
        if u.key >= r.key:
            if u.key == r.key:
                out[i] = (u, f + 1)
            else:
                out.insert(i, (r, 1))
            return tuple(out)
    out.append((r, 1))
    return tuple(out)


def oracle_raised_terms(lam, p):
    """The (monomial, rational) stream of d_lam p, unsummed."""
    ctx = p.ctx
    x = ctx.coordinate(lam)
    for (ev, od), c in oracle_coeffs(p).items():
        for pos, (w, e) in enumerate(ev):
            ce = c * e
            if w.gen.kind == "coordinate":
                if w.key == x.key:
                    if e == 1:
                        yield (ev[:pos] + ev[pos + 1:], od), ce
                    else:
                        yield (ev[:pos] + ((w, e - 1),) + ev[pos + 1:], od), ce
                continue
            yield (_oracle_trade_even(ev, pos, e, ctx.raised(w, lam)), od), ce
        for pos, w in enumerate(od):
            r = ctx.raised(w, lam)
            rest = od[:pos] + od[pos + 1:]
            at = 0
            for u in rest:
                if u.key >= r.key:
                    break
                at += 1
            if at < len(rest) and rest[at].key == r.key:
                continue
            yield (ev, rest[:at] + (r,) + rest[at:]), -c if (pos - at) & 1 else c


def oracle_add_total_derivative(out, lam, p, sign=1):
    """out += sign * d_lam p for a dict of rational coefficients, through
    the raised-term stream."""
    return oracle_sum(out, ((m, c * sign) for m, c in oracle_raised_terms(lam, p)))


def oracle_partial(p, v, side="left"):
    """The rational coefficients of the partial of `p` along `v`: the
    power rule on an even variable; on an odd one, the sign of moving it
    to the front (left) or the back (right) of the odd word."""
    out = {}
    for (ev, od), c in oracle_coeffs(p).items():
        if v.parity == EVEN:
            for pos, (w, e) in enumerate(ev):
                if w.key == v.key:
                    rest = ev[:pos] + (((w, e - 1),) if e > 1 else ()) + ev[pos + 1:]
                    oracle_sum(out, (((rest, od), c * e),))
        else:
            for pos, w in enumerate(od):
                if w.key == v.key:
                    passed = pos if side == "left" else len(od) - 1 - pos
                    oracle_sum(out, (((ev, od[:pos] + od[pos + 1:]), -c if passed & 1 else c),))
    return out


def oracle_substitute(p, mapping):
    """The rational coefficients of `p` with each variable in `mapping`
    replaced: every term is multiplied out factor by factor, in its
    normal order, with the replacements in place."""
    out = {}
    for (ev, od), c in oracle_coeffs(p).items():
        prod = {((), ()): c}
        factors = [v for v, e in ev for _ in range(e)] + list(od)
        for v in factors:
            repl = mapping.get(v)
            if repl is None:
                mono = (((v, 1),), ()) if v.parity == EVEN else ((), (v,))
                factor = {mono: Fraction(1)}
            else:
                factor = oracle_coeffs(repl)
            prod = oracle_sum({}, _oracle_product_terms(prod, factor, 1))
        oracle_sum(out, prod.items())
    return out


# -- dense validation oracles ----------------------------------------------
#
# Transcriptions of the original dense loops over every index tuple,
# written against the public accessors `constant` and `form` only; they
# share no code with the sparse `check_structure`/`check_invariant_form`.


def _dense_tables(alg):
    """Every c^r_ij and h_ij as nested lists; integral values as ints,
    which keeps the n^5 loop fast."""
    def small(x):
        return x.numerator if x.denominator == 1 else x

    n = alg.dim
    c = [[[small(alg.constant(r, i, j)) for j in range(n)] for i in range(n)]
         for r in range(n)]
    h = [[small(alg.form(i, j)) for j in range(n)] for i in range(n)]
    return c, h


def dense_structure_violations(alg):
    """Violation list of the dense parity and super-Jacobi check."""
    violations = []
    for r, i, j, v in alg.stored_constants():
        if v != 0 and alg.parities[r] != (alg.parities[i] + alg.parities[j]) % 2:
            violations.append(("parity", (r, i, j)))
    n = alg.dim
    par = alg.parities
    c, _ = _dense_tables(alg)
    for i in range(n):
        for a in range(n):
            for b in range(n):
                s1 = -1 if par[i] and par[b] else 1
                s2 = -1 if par[a] and par[i] else 1
                s3 = -1 if par[b] and par[a] else 1
                for r in range(n):
                    total = 0
                    for j in range(n):
                        total += s1 * c[r][i][j] * c[j][a][b]
                        total += s2 * c[r][a][j] * c[j][b][i]
                        total += s3 * c[r][b][j] * c[j][i][a]
                    if total != 0:
                        violations.append(("jacobi", (r, (i, a, b))))
    return violations


def _dense_det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for col, x in enumerate(rows[0]):
        if x:
            minor = [row[:col] + row[col + 1:] for row in rows[1:]]
            total += (-1) ** col * x * _dense_det(minor)
    return total


def dense_form_violations(alg):
    """Violation list of the dense invariant-form check."""
    violations = []
    n = alg.dim
    par = alg.parities
    ev = [i for i in range(n) if par[i] == EVEN]
    if ev and _dense_det([[alg.form(i, j) for j in ev] for i in ev]) == 0:
        violations.append(("singular-even-block", ()))
    c, h = _dense_tables(alg)
    for r in range(n):
        for i in range(n):
            for j in range(n):
                total = 0
                sign = -1 if par[r] and par[i] else 1
                for m in range(n):
                    total += h[m][j] * c[m][r][i]
                    total += sign * h[i][m] * c[m][r][j]
                if total != 0:
                    violations.append(("invariance", (r, i, j)))
    return violations


_VALUES = (1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2))


def perturb_algebra(rng, alg, constants=1, form_entries=0, consistent=0.8):
    """Overwrite random constants (parity-consistent with probability
    `consistent`) and form entries of `alg` in place, skipping entries
    the storage rules reject."""
    from gvc import GvcError

    n = alg.dim
    par = alg.parities
    for _ in range(constants):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j and par[i] == EVEN:
            continue
        wanted = [r for r in range(n) if par[r] == (par[i] + par[j]) % 2]
        r = rng.choice(wanted if wanted and rng.random() < consistent else range(n))
        key = (r, i, j) if i <= j else (r, j, i)
        alg._c.pop(key, None)
        alg.set_constant(r, i, j, rng.choice(_VALUES))
    for _ in range(form_entries):
        i, j = rng.randrange(n), rng.randrange(n)
        if par[i] != par[j] or (i == j and par[i] == ODD):
            continue
        alg._h.pop((min(i, j), max(i, j)), None)
        try:
            alg.set_form(i, j, rng.choice(_VALUES))
        except GvcError:
            pass
    return alg


def random_superalgebra(rng, max_dim=5):
    """A random algebra of mixed parities: random constants (some of
    them parity-inconsistent, so Jacobi is broken almost always) and,
    usually, a random graded-symmetric form."""
    from gvc import LieSuperalgebra

    n = rng.randint(1, max_dim)
    alg = LieSuperalgebra(["b%d" % k for k in range(n)],
                          [rng.choice((EVEN, ODD)) for _ in range(n)])
    perturb_algebra(rng, alg, constants=rng.randint(0, 2 * n),
                    form_entries=rng.randint(0, 2 * n) if rng.random() < 0.8 else 0)
    return alg


# -- basis rescaling ------------------------------------------------------------


def rescaled_model_text(spec, scales):
    """Model text of the parsed `spec` in the basis e_i -> s_i e_i, where
    `scales` maps each generator name to s_i (default 1): the constants
    become c'^r_ij = c^r_ij s_i s_j / s_r and the form h'_ij = h_ij s_i s_j.
    It is the same algebra, so every check must give the same verdict."""
    s = {name: Fraction(scales.get(name, 1)) for name, _ in spec.generators}
    lines = ["[model]", "dimension = %d" % spec.dimension, "metric = %s" % spec.metric,
             "max_jet_order = %d" % spec.max_jet_order, "", "[algebra]"]
    lines += ["generator %s parity %d" % (name, parity) for name, parity in spec.generators]
    lines += ["c %s %s %s = %s" % (r, i, j, c * s[i] * s[j] / s[r])
              for r, i, j, c, _ in spec.constants]
    lines += ["", "[form]"]
    lines += ["h %s %s = %s" % (i, j, h * s[i] * s[j]) for i, j, h, _ in spec.form_entries]
    lines += ["", "[checks]"] + list(spec.checks)
    return "\n".join(lines) + "\n"


# -- sl(m|n) from supermatrices ---------------------------------------------------


def supermatrix_model_text(degrees):
    """Model file of sl(m|n) in 4D on a space whose row i has Z2-degree
    degrees[i]: the basis is H_k = s_k E_kk - s_k+1 E_k+1,k+1 (s_i = -1 on
    an odd row), k < n - 1, then every E_ij, i != j, in row order, written
    by `_matrix_model_text`, in the layout of bench/sl3.model, which
    degrees (0, 0, 0) reproduces."""
    n = len(degrees)
    s = [-1 if d else 1 for d in degrees]
    labels = ["H%d" % (k + 1) for k in range(n - 1)]
    mats = [{(k, k): Fraction(s[k]), (k + 1, k + 1): Fraction(-s[k + 1])} for k in range(n - 1)]
    for i in range(n):
        for j in range(n):
            if i != j:
                labels.append("E%d%d" % (i + 1, j + 1))
                mats.append({(i, j): Fraction(1)})

    def coordinates(m):
        # E_ij off the diagonal; on it, x_k = s_k d_k + x_k-1 solves the H_k
        out = [Fraction(0)] * (n - 1) + [m.get(key, 0) for key in
                                         ((i, j) for i in range(n) for j in range(n) if i != j)]
        for k in range(n - 1):
            out[k] = s[k] * m.get((k, k), 0) + (out[k - 1] if k else 0)
        assert m.get((n - 1, n - 1), 0) == -s[n - 1] * out[n - 2]
        return out

    return _matrix_model_text(labels, mats, degrees, coordinates)


def osp_model_text(m, two_n):
    """Model file of osp(m|2n) in 4D: the supermatrices X on m even rows,
    then 2n odd ones, that keep the supersymmetric form B = diag(I_m, J),
    J = [[0, I_n], [-I_n, 0]], so that for every row a and column b
        (X^T B)_ab + (-1)^{|X| d_a} (B X)_ab = 0,
    d_a the degree of row a.  Each parity's solutions are an exact rational
    nullspace (`_nullspace`), one basis vector per free entry: X_k (even)
    and Y_k (odd), written by `_matrix_model_text`."""
    n, size = two_n // 2, m + two_n
    degrees = [0] * m + [1] * two_n
    form = {(a, a): 1 for a in range(m)}
    for k in range(m, m + n):
        form[(k, k + n)], form[(k + n, k)] = 1, -1
    labels, mats, free = [], [], []
    for parity, letter in ((0, "X"), (1, "Y")):
        entries = [(i, j) for i in range(size) for j in range(size)
                   if (degrees[i] + degrees[j]) % 2 == parity]
        column = {e: k for k, e in enumerate(entries)}
        rows = []
        for a in range(size):
            for b in range(size):
                row = [Fraction(0)] * len(entries)
                for c in range(size):
                    if (c, b) in form and (c, a) in column:
                        row[column[(c, a)]] += form[(c, b)]
                    if (a, c) in form and (c, b) in column:
                        row[column[(c, b)]] += (-1) ** (parity * degrees[a]) * form[(a, c)]
                rows.append(row)
        for vector, k in _nullspace(rows, len(entries)):
            labels.append("%s%d" % (letter, sum(label[0] == letter for label in labels) + 1))
            mats.append({e: x for e, x in zip(entries, vector) if x})
            free.append(entries[k])

    def coordinates(mat):
        # each basis vector is 1 on its free entry and 0 on the others'
        out = [mat.get(e, 0) for e in free]
        spanned = {}
        for x, basis in zip(out, mats):
            for e, y in basis.items():
                spanned[e] = spanned.get(e, 0) + x * y
        assert {e: y for e, y in spanned.items() if y} == {e: y for e, y in mat.items() if y}
        return out

    return _matrix_model_text(labels, mats, degrees, coordinates)


def _nullspace(rows, width):
    """(vector, free column) for a basis of the rational nullspace of
    `rows`, lists of `width` Fractions, by exact row reduction: one vector
    per free column, 1 there and 0 on every other free column."""
    rows, pivots = [list(row) for row in rows], []
    for col in range(width):
        rank = len(pivots)
        pivot = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for k, row in enumerate(rows):
            if k != rank and row[col]:
                rows[k] = [x - row[col] * y for x, y in zip(row, rows[rank])]
        pivots.append(col)
    out = []
    for col in (c for c in range(width) if c not in pivots):
        vector = [Fraction(0)] * width
        vector[col] = Fraction(1)
        for row, pivot in zip(rows, pivots):
            vector[pivot] = -row[col]
        out.append((vector, col))
    return out


def _product(a, b):
    """The product of two matrices given as dicts (row, column) -> entry."""
    out = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) + x * y
    return out


def _matrix_model_text(labels, mats, degrees, coordinates):
    """Model file in 4D of the Lie superalgebra with basis `mats`, homogeneous
    supermatrices as dicts (row, column) -> Fraction named `labels`, on rows
    of Z2-degrees `degrees`: each constant is a coordinate
    (`coordinates(matrix)`, one per basis element) of the supercommutator
    [X, Y] = XY - (-1)^{|X||Y|} YX and h is the supertrace of XY, both
    exact, in the layout of bench/sl3.model."""
    parity = [next((degrees[i] + degrees[j]) % 2 for i, j in m) for m in mats]
    lines = ["[model]", "dimension = 4", "metric = +---", "max_jet_order = 3", "",
             "[algebra]"]
    lines += ["generator %s parity %d" % item for item in zip(labels, parity)]
    forms = []
    for i in range(len(mats)):
        for j in range(i, len(mats)):
            xy, yx = _product(mats[i], mats[j]), _product(mats[j], mats[i])
            sign = -1 if parity[i] and parity[j] else 1
            bracket = {key: xy.get(key, 0) - sign * yx.get(key, 0) for key in set(xy) | set(yx)}
            lines += ["c %s %s %s = %s" % (labels[r], labels[i], labels[j], c)
                      for r, c in enumerate(coordinates(bracket)) if c]
            h = sum(-x if degrees[k] else x for (k, k2), x in xy.items() if k == k2)
            if h:
                forms.append("h %s %s = %s" % (labels[i], labels[j], h))
    return "\n".join(lines + ["", "[form]"] + forms + ["", "[checks]"]
                      + list(GaugeModel.PIPELINES)) + "\n"


# -- dense form oracles -------------------------------------------------------
#
# The form operations as they were before forms were summed in place:
# every coefficient is split into parity parts, every sum makes a new
# Poly, `_oracle_add` copies the whole form, and `oracle_project_rho`
# contracts each contact leg with a separate walk over the whole form.
# They use only `Form`'s constructor, Poly arithmetic and the word
# helpers; none of the per-word tables of the engine.


def _oracle_acc(table, word, poly):
    if poly.is_zero():
        return
    cur = table.get(word)
    if cur is None:
        table[word] = poly
    else:
        s = cur + poly
        if s.is_zero():
            del table[word]
        else:
            table[word] = s


def parity_parts(p):
    """The nonzero (parity, homogeneous part) pieces of `p`."""
    return [(parity, part) for parity, part in
            ((EVEN, even_part(p)), (ODD, odd_part(p))) if part.terms]


def oracle_add(a, b):
    """a + b with copy-on-add."""
    out = dict(a.terms)
    for w, f in b.terms.items():
        _oracle_acc(out, w, f)
    return Form(a.ctx, out)


def oracle_wedge(a, b):
    out = {}
    for w1, f1 in a.terms.items():
        p1 = sum(ell[1].parity for ell in w1 if ell[0] == TH) & 1
        for w2, f2 in b.terms.items():
            nw = _normal_word(w1 + w2)
            if nw is None:
                continue
            sign, word = nw
            for gp, gpart in parity_parts(f2):
                s = -sign if (gp and p1) else sign
                _oracle_acc(out, word, (f1 * gpart) * s)
    return Form(a.ctx, out)


def oracle_letter_wedge_left(ell, phi):
    out = {}
    lp = _letter_parity(ell)
    for w, f in phi.terms.items():
        nw = _normal_word((ell,) + w)
        if nw is None:
            continue
        sign, word = nw
        for fp, fpart in parity_parts(f):
            s = -sign if (fp and lp) else sign
            _oracle_acc(out, word, fpart * s)
    return Form(phi.ctx, out)


def oracle_form_total_derivative(lam, phi):
    ctx = phi.ctx
    out = {}
    for w, f in phi.terms.items():
        _oracle_acc(out, w, total_derivative(lam, f))
        for i, ell in enumerate(w):
            if ell[0] != TH:
                continue
            v = ell[1]
            raised = ctx.jet(v.gen, v.index + (lam,))
            nw = _normal_word(w[:i] + (theta_letter(raised),) + w[i + 1:])
            if nw is None:
                continue
            sign, word = nw
            _oracle_acc(out, word, f * sign)
    return Form(ctx, out)


def oracle_d_h(phi):
    """dx^lam ^ d_lam over every word, none skipped."""
    out = Form.zero(phi.ctx)
    for lam in range(phi.ctx.dim):
        out = oracle_add(out, oracle_letter_wedge_left(
            dx_letter(lam), oracle_form_total_derivative(lam, phi)))
    return out


def _oracle_contract_word(phi, op_parity, value_fn):
    out = {}
    for w, f in phi.terms.items():
        for fp, fpart in parity_parts(f):
            base = -1 if (fp and op_parity) else 1
            prefix_sign = 1
            prefix_parity = 0
            for i, ell in enumerate(w):
                val = value_fn(ell)
                if val is not None and not val.is_zero():
                    vp = val.require_parity()
                    move = -1 if (vp and prefix_parity & 1) else 1
                    _oracle_acc(out, w[:i] + w[i + 1:],
                                fpart * val * (base * prefix_sign * move))
                lp = _letter_parity(ell)
                if not (lp and op_parity):
                    prefix_sign = -prefix_sign
                prefix_parity += lp
    return Form(phi.ctx, out)


def oracle_interior(theta, phi):
    return _oracle_contract_word(phi, theta.parity, lambda ell: (
        theta.contract_variable(ell[1]) if ell[0] == TH else None))


def oracle_interior_frame(var, phi):
    one = phi.ctx.one()
    return _oracle_contract_word(phi, var.parity, lambda ell: (
        one if ell[0] == TH and ell[1].key == var.key else None))


def oracle_interior_dx(lam, phi):
    one = phi.ctx.one()
    return _oracle_contract_word(phi, EVEN, lambda ell: (
        one if ell[0] == DX and ell[1] == lam else None))


def oracle_project_rho(phi):
    """One interior_frame walk over the whole form per contact leg."""
    ctx = phi.ctx
    by_k = {}
    for w, f in phi.terms.items():
        k = sum(1 for ell in w if ell[0] == TH)
        by_k.setdefault(k, {})[w] = f
    out = Form.zero(ctx)
    for k, terms in by_k.items():
        psi = Form(ctx, terms)
        legs = {ell[1] for w in terms for ell in w if ell[0] == TH}
        acc = Form.zero(ctx)
        for v in sorted(legs, key=lambda u: u.key):
            contracted = oracle_interior_frame(v, psi)
            for lam in v.index:
                contracted = oracle_form_total_derivative(lam, contracted)
            piece = oracle_letter_wedge_left(theta_letter(ctx.jet(v.gen, ())), contracted)
            if len(v.index) & 1:
                piece = -piece
            acc = oracle_add(acc, piece)
        out = oracle_add(out, scale(acc, Fraction(1, k)))
    return out


def random_linear_jets(rng, ctx, gens, terms=4, max_order=3):
    """A sum of jets of `gens` of order 1 to `max_order`, each linear with
    a coefficient among 1, -1, 2 and 1/2."""
    out = ctx.zero()
    for _ in range(terms):
        index = [rng.randrange(ctx.dim) for _ in range(rng.randint(1, max_order))]
        coeff = rng.choice((1, -1, 2, Fraction(1, 2)))
        out = out + coeff * ctx.var(rng.choice(gens), *index)
    return out


def linear_jet_polys(rng, ctx, moved):
    """Random terms plus linear jets of the moved fields, plus a jet of any
    field times a random term (so not every jet's partial is constant)."""
    gens = field_generators(ctx)
    return (random_poly(rng, ctx, terms=3) + random_linear_jets(rng, ctx, moved)
            + random_linear_jets(rng, ctx, gens, terms=1) * random_poly(rng, ctx, terms=1))


def linear_jet_paths(theta, p, side, counts):
    """Count the jets with a constant partial by the path they took: one
    with partial +-1 and no kept value was fused, one with another
    constant partial took the product and so has its value kept."""
    for v, dp in p.partials(side, theta.components):
        if v.index and list(dp.terms) == [((), ())]:
            if dp.constant_term() in (1, -1):
                counts["fused"] += v not in theta._values
            else:
                assert v in theta._values
                counts["product"] += 1


def shared_jet_poly(rng, ctx, moved):
    """Random terms over the denominators 1, 3 and 6, plus a jet v of a
    moved field that enters linearly with coefficient +-1 and inside
    another monomial, and squared when it is even, these added in a
    random order; returns the polynomial and v."""
    gen = rng.choice(moved)
    v = ctx.jet(gen, [rng.randrange(ctx.dim) for _ in range(rng.randint(1, 2))])
    x = ctx.var(gen, *v.index)
    parts = [rng.choice((1, -1)) * x, x * random_poly(rng, ctx, terms=1, dens=(1, 3))]
    if gen.parity == EVEN:
        parts.append(x * x * random_poly(rng, ctx, terms=1, dens=(1, 2)))
    rng.shuffle(parts)
    p = random_poly(rng, ctx, terms=2, dens=(1, 3, 6))
    for part in parts:
        p = p + part
    return p, v


def shared_jet_cases(theta, p, v, counts):
    """Count what a `shared_jet_poly` polynomial covers when theta moves
    v: a denominator other than 1, a power of at least two, and the +-1
    term of v walked before or after another term that holds v."""
    if v.gen not in theta.components:
        return
    counts["den"] += p.den != 1
    counts["power"] += any(w is v and e > 1 for ev, _ in p.terms for w, e in ev)
    linear = (((v, 1),), ()) if v.parity == EVEN else ((), (v,))
    walk = list(p.terms)
    if p.terms.get(linear) in (p.den, -p.den):
        holding = [i for i, (ev, od) in enumerate(walk)
                   if (ev, od) != linear and (v in od or any(w is v for w, _ in ev))]
        if holding:
            counts["first" if walk.index(linear) < holding[0] else "later"] += 1


def _oracle_act(theta, p, side):
    """The prolonged action of theta on p with no memo, on dicts of
    rational coefficients: each moved variable's value is prolonged
    afresh and multiplied on the left of its left partial, or on the
    right of its right partial, by the per-pair oracle product."""
    ctx = theta.ctx
    out = {}
    for v in p.variables():
        val = theta.components.get(v.gen)
        if val is not None:
            value = iterated_derivative(v.index, val)
            dp = oracle_poly(ctx, oracle_partial(p, v, side))
            if side == "left":
                oracle_add_product(out, value, dp)
            else:
                oracle_add_product(out, dp, value)
    return oracle_poly(ctx, out)


def oracle_prolong_apply(theta, p):
    """The prolonged left action with no memo."""
    return _oracle_act(theta, p, "left")


def oracle_koszul_tate_apply(kt, p):
    """The Koszul-Tate right action with no memo."""
    return _oracle_act(kt, p, "right")


def oracle_koszul_tate_residuals(kt):
    """kt(kt(z)) on every generator z the oracle action moves."""
    return {gen.name: oracle_koszul_tate_apply(kt, val)
            for gen, val in kt.components.items()}


# -- test-only model builders -----------------------------------------------
#
# Densities and symmetries of a `GaugeModel` that only tests use, built
# from its roster, graded constants and form entries.


def mass_term_lagrangian(model):
    """Quadratic field (not strength) density; breaks gauge invariance."""
    ctx = model.ctx
    density = ctx.zero()
    for i, j, h in model.form_entries:
        for mu in range(model.metric.dim):
            density += ctx.product(h * model.metric.signs[mu], (
                ctx.jet(model.field[i][mu]), ctx.jet(model.field[j][mu])))
    return Lagrangian(density)


def sym_jet(model, r, lam, mu):
    """Symmetric half of the split first jets of `model`; it and the
    strength add up to twice the jet."""
    ctx = model.ctx
    return (ctx.var(model.field[r][mu], lam) + ctx.var(model.field[r][lam], mu)
            - model._yang_mills.twist(r, lam, mu))


def sym_quadratic_lagrangian(model):
    """Quadratic density in the symmetric jet half (canonical index
    order, which is where the half is a split coordinate); it depends on
    the symmetric coordinates but not on the bare fields."""
    n = model.metric.dim
    density = model.ctx.zero()
    for i, j, h in model.form_entries:
        for lam in range(n):
            for beta in range(lam, n):
                coeff = Fraction(1, 4) * h * model.metric.signs[lam] * model.metric.signs[beta]
                density += coeff * (sym_jet(model, i, lam, beta) * sym_jet(model, j, lam, beta))
    return Lagrangian(density)


def constant_parameter_symmetry(model, vec):
    """Gauge symmetry of `model` for a constant parameter vector over the
    algebra's basis."""
    ctx = model.ctx
    vec = [Fraction(c) for c in vec]
    assert len(vec) == model.algebra.dim
    comps = {}
    for r, j, i, c in model.constants:
        if vec[j]:
            for mu in range(model.metric.dim):
                gen = model.field[r][mu]
                comps[gen] = comps.get(gen, ctx.zero()) + (-c * vec[j]) * ctx.var(
                    model.field[i][mu])
    return ContactDerivation(ctx, comps, EVEN)


def orbit_only_failure():
    """A density S, its pairing and a relabelling g = (gen_map, signs),
    with no signs, that keeps the pairing but not S, such that
    Theta_S^2 vanishes on the smallest-key member of every orbit of g but
    not on u2 and ebar2.

    Even fields u1, u2, e1, e2 with odd antifields ubar1, ubar2, ebar1,
    ebar2, and an odd ghost c with its even partner cbar; g swaps the
    index 1 and 2 members of each family.  With
    S = ubar2 c + cbar e2 + ubar1 ubar2 e1, {S, S} is a multiple of
    ubar2 e2, so its rows sit on u2 and ebar2 alone, while Theta_S moves
    u1, u2, ebar1, ebar2, c and cbar, a set g maps onto itself."""
    ctx = Context(1)
    pairs = {}
    for name in ("u1", "u2", "e1", "e2"):
        pairs[ctx.add_generator(name, "even-field", EVEN)] = ctx.add_generator(
            name[0] + "bar" + name[1:], "antifield", ODD, ghost_number=-1, antifield_number=1)
    pairs[ctx.add_generator("c", "ghost", ODD, ghost_number=1)] = ctx.add_generator(
        "cbar", "noether-antifield", EVEN, ghost_number=-2, antifield_number=2)
    var = ctx.var
    density = var("ubar2") * var("c") + var("cbar") * var("e2") \
        + var("ubar1") * var("ubar2") * var("e1")
    gen = ctx.generator
    gen_map = {}
    for a, b in (("u1", "u2"), ("ubar1", "ubar2"), ("e1", "e2"), ("ebar1", "ebar2")):
        gen_map[gen(a)], gen_map[gen(b)] = gen(b), gen(a)
    return Lagrangian(density), pairs, (gen_map, {})


def brute_force_automorphisms(alg):
    """Every parity-preserving signed permutation e_i -> s_i e_pi(i) that
    keeps the constants and the form, by enumeration over the dense
    tables: each permutation within the parity classes that maps every
    entry to one of the same magnitude, then every sign vector on it."""
    m = alg.dim
    idx = range(m)
    tables = ({(r, i, j): alg.constant(r, i, j) for r in idx for i in idx for j in idx},
              {(i, j): alg.form(i, j) for i in idx for j in idx})
    entries = sorted(((key, v, table) for table in tables for key, v in table.items()),
                     key=lambda e: e[1] == 0)  # nonzero entries first
    classes = [[i for i in idx if alg.parities[i] == p] for p in (EVEN, ODD)]
    out = []
    for images in itertools.product(*(itertools.permutations(c) for c in classes)):
        pi = [None] * m
        for cls, image in zip(classes, images):
            for i, t in zip(cls, image):
                pi[i] = t
        if any(abs(table[tuple(pi[x] for x in key)]) != abs(v) for key, v, table in entries):
            continue
        for s in itertools.product((1, -1), repeat=m):
            if all(table[tuple(pi[x] for x in key)] == v * math.prod(s[x] for x in key)
                   for key, v, table in entries if v):
                out.append((tuple(pi), s))
    return out


def relabel(p, gen_map, signs):
    """The image of p under a signed relabelling of generators: each jet
    z;Lambda becomes signs[z] gen_map(z);Lambda (z itself where `gen_map`
    has no entry, sign 1 where `signs` has none), by `Poly.substitute`."""
    return p.substitute({v: p.ctx.var(gen_map.get(v.gen, v.gen), *v.index) * signs.get(v.gen, 1)
                         for v in p.variables() if v.gen in gen_map or v.gen in signs})


def fixed_by(maps, p):
    """Whether each signed relabelling (gen_map, signs) of `maps` fixes the
    polynomial p (`relabel`)."""
    return all(relabel(p, *g) == p for g in maps)


def basis_orbits(m, maps):
    """The orbits of the permutations pi of (pi, s) on range(m), as a set
    of frozensets, by closing each index under the maps."""
    out = set()
    for i in range(m):
        orbit, todo = {i}, [i]
        while todo:
            k = todo.pop()
            for pi, _ in maps:
                if pi[k] not in orbit:
                    orbit.add(pi[k])
                    todo.append(pi[k])
        out.add(frozenset(orbit))
    return out


def relabellings(model, maps):
    """For each algebra map (pi, s) of `maps`, the generator relabelling
    (gen_map, signs) moving the field, antifield, ghost, degree-two
    antifield, parameter, strength and symmetric coordinates of direction
    r to s_r times pi(r)'s, for `relabel` and `fixed_by`."""
    m = model.algebra.dim
    by_r = [model.field[r] + model.antifield[r]
            + [model.ghost[r], model.noether_antifield[r], model.parameter[r]]
            + [g for table in (model.aux_strength, model.aux_sym)
               for (q, _, _), g in table.items() if q == r] for r in range(m)]
    return [({gen: image for r in range(m) for gen, image in zip(by_r[r], by_r[pi[r]])},
             {gen: -1 for r in range(m) if signs[r] < 0 for gen in by_r[r]})
            for pi, signs in maps]


def generator_roots(maps, moved):
    """The smallest-key member of each orbit of the generators `moved` under
    the relabellings `maps` (gen_map, signs), signs aside, from one
    union-find over z -- g(z)."""
    root = {z: z for z in moved}

    def find(z):
        while root[z] is not z:
            z = root[z]
        return z

    for gen_map, _ in maps:
        for z, w in gen_map.items():
            if z in root and w in root:
                a, b = sorted((find(z), find(w)), key=lambda g: g.key)
                root[b] = a
    return {z for z in moved if find(z) is z}


def reduce_or_whole(evaluate, moved, representatives=None):
    """The residual table of the generators `moved`, by name in key order,
    where `evaluate(gens)` gives it on a sublist: on those of
    `representatives` in `moved` alone where it is zero there, else whole
    (also when none is in `moved`).  The tests' copy of the rule
    `GaugeModel._by_direction` keeps, on generators instead of algebra
    directions, for densities the model does not reduce."""
    order = sorted(moved, key=lambda g: g.key)
    chosen = [z for z in order if z in representatives] if representatives else []
    if chosen:
        kept = evaluate(chosen)
        if all(p.is_zero() for p in kept.values()):
            return kept
    return evaluate(order)


@contextlib.contextmanager
def direct_routes():
    """Every model takes every check's direct route while the block runs:
    no object is the model's own (`GaugeModel._own` is False), so every
    route names a failing condition (`GaugeModel._detour`), and no table
    is orbit-reduced either (`GaugeModel._representatives` is None)."""
    saved = GaugeModel._own
    GaugeModel._own = lambda self, key, built: False
    try:
        yield
    finally:
        GaugeModel._own = saved


def superbracket(t1, t2):
    """[t1, t2] = t1 o t2 - (-1)^{[t1][t2]} t2 o t1 of left-acting t1, t2:
    the graded commutator of two derivations, as a derivation."""
    ctx = t1.ctx
    sign = -1 if (t1.parity and t2.parity) else 1
    comps = {}
    gens = set(t1.components) | set(t2.components)
    for gen in gens:
        c = prolong_apply(t1, t2.component(gen)) - sign * prolong_apply(t2, t1.component(gen))
        if not c.is_zero():
            comps[gen] = c
    return ContactDerivation(ctx, comps, (t1.parity + t2.parity) % 2)


# -- test-only engine helpers ---------------------------------------------------
#
# Small constructors and operations on the engine's types that only tests
# use; each is built from the engine's own kernels.


def abelian_algebra():
    """The one-dimensional abelian algebra with unit form."""
    alg = LieSuperalgebra(["e1"], [EVEN])
    alg.set_form("e1", "e1", 1)
    return alg


def su2_algebra():
    """Three even generators with totally antisymmetric constants and the
    Euclidean invariant form."""
    alg = LieSuperalgebra(["e1", "e2", "e3"], [EVEN, EVEN, EVEN])
    alg.set_constant("e1", "e2", "e3", 1)
    alg.set_constant("e2", "e3", "e1", 1)
    alg.set_constant("e3", "e1", "e2", 1)
    for lab in alg.labels:
        alg.set_form(lab, lab, 1)
    return alg


def form_from_poly(p):
    """The 0-form of the polynomial p."""
    return Form(p.ctx, {(): p})


def scale(phi, c):
    """The form phi times the scalar c."""
    return Form(phi.ctx, {w: f * c for w, f in phi.terms.items()})


def letter_wedge_left(ell, phi):
    """ell wedge phi for a single basis one-form ell."""
    return _form(phi.ctx, _add_letter_wedge({}, phi.ctx, ell, phi.terms.items()))


def interior_frame(var, phi):
    """Contraction with the coordinate contact frame dual to th at `var`."""
    one = phi.ctx.one()
    return _contract_word(phi, var.parity, lambda ell: (
        one if ell[0] == TH and ell[1].key == var.key else None))


def first_variational_residual(theta, L):
    """L_theta L - theta | delta L - d_H h0(theta | Xi_L); zero when exact."""
    lie = lie_derivative(theta, L.form)
    dl = variational_delta(L.form)
    xi = lepage_equivalent(L)
    return lie - interior(theta, dl) - d_h(h0(interior(theta, xi)))
