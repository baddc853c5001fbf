"""Turnkey Yang-Mills models over a Lie (super)algebra.

Builds the generator roster (gauge fields, ghosts, antifields, degree-two
antifields and gauge parameters, each field with the parity of its algebra
direction), the one field-antifield pairing, the strength polynomials, the
quadratic Lagrangian, two routes to the field equations (compared on one
field per orbit), the Noether rows, the Koszul-Tate, gauge and BRST
derivations, the extended density solving the master equation, and the
invariance conditions that single the Lagrangian out.

The invariance conditions are taken in the Utiyama split coordinates:
phi rewrites each first jet of a field by the strength and symmetric
coordinates (Fs, Ss), and the model's own Lagrangian becomes
1/4 h g g Fs Fs.  They are the partials of phi(L), kept with L; the
contraction row of direction q (`_contraction`), built from them once,
also gives the gauge Lie derivatives.  A part of the model's own gauge or
parameter derivation on directions qs moves F covariantly, by the graded
Jacobi identity the algebra passes, so phi(theta(L)) = sum over q in qs
of sources[q] times row q: where the jets fit and those rows are zero,
L_theta L is zero, with no jet strength and no prolongation formed.  Any
other derivation or density, and a nonzero row, is taken in jets, whose
Form is the row.

Every shortcut route runs only on the model's own objects, those kept
under their keys (`_own`), whose shape follows from their construction:
one table lists each route's conditions (`_ROUTES`), and `_detour` names
the first that fails, so an installed object takes the check's direct
route.  Every generator carries one algebra direction, and every object a
check reads is built from c, h and the metric, so each signed permutation
of the algebra's basis keeping c and h, moving each generator with its
direction, fixes it.  Where the objects are the model's own, six checks
run on one direction per orbit of those maps (`_representatives`), all
through one rule (`_by_direction`): a reduced table is zero on the
representatives, or taken whole.

Noether's second theorem gives two checks their rows.  The Noether rows are
zero once gauge-symmetry is: N_q(E(L)) = -delta(u L)/delta C^q
(`_noether_residuals`).  For the parameter part of directions qs,
d_h J - sum_z E_z theta(z) = d_h(J - W - d_H U) + sum_q xi^q N_q(E) vol,
so current conservation reads the superpotential check's residual and
the kept rows where its route runs (`_conserved`).

The model's own L is kept, its form validated at once, but its strength
density in jets is built only when first read (`_YangMills`, which also
keeps the strengths, and no model): the invariance conditions and the
gauge Lie derivatives read the partials of phi(L), built from the strength
coordinates, so `utiyama`, `brst`, `koszul-tate` and a graded `noether`
never expand L, nor build a jet strength.  The generic field equations E(L) are kept
with L, read its density at their first fill, and are filled field by
field where a check reads them (`EulerLagrange.by_field`): the two-path
check on its representatives, the superpotential on its part's fields.
Koszul-Tate's square on an antifield is delta(E_z(L)), zero by
construction for the model's own L, E(L) and rows, so there Koszul-Tate
is not built and no E_z is read.  The master equation on the split route
squares nothing and builds no Theta: its nontriviality is read from E(S)
on s's generators.
"""

import time
from fractions import Fraction
from types import MappingProxyType

from .grassmann import (DEFAULT_MAX_JET_ORDER, DEFAULT_TERM_LIMIT, Context, EVEN, ODD,
                        ExpansionLimitError, GvcError, Poly, accumulate, add_product)
from .superlie import check_invariant_form, check_structure, orbit_roots, signed_automorphisms
from .jets import ContactDerivation, add_total_derivative, prolong_apply, variational_derivatives
from .bicomplex import (
    EulerLagrange,
    Form,
    Lagrangian,
    conservation_residual,
    d_h,
    lepage_equivalent,
    noether_current,
    omega_pair,
    superpotential_residual,
    volume,
)
from .brst import (
    NoetherOperator,
    brst_extend,
    koszul_tate,
    master_equation_check,
    nilpotency_residuals,
    noether_residuals,
    paired_sum,
    proper_solution,
)
from .reporting import CheckResult, Report


class Metric:
    """Constant diagonal metric with entries +-1, so its inverse is itself
    and the volume factor is one."""

    __slots__ = ("signs",)

    def __init__(self, signs):
        signs = tuple(int(s) for s in signs)
        if not signs or any(s not in (1, -1) for s in signs):
            raise GvcError("metric entries must be +1 or -1")
        self.signs = signs

    @classmethod
    def from_signature(cls, text):
        table = {"+": 1, "-": -1}
        try:
            return cls(tuple(table[ch] for ch in text.strip()))
        except KeyError:
            raise GvcError("metric signature must be a string of + and -")

    @property
    def dim(self):
        return len(self.signs)

    def signature(self):
        return "".join("+" if s == 1 else "-" for s in self.signs)


def model_header(parities, signature):
    """Report header of a model: algebra flavour, dimension and metric."""
    flavor = "even" if all(p == EVEN for p in parities) else "graded"
    return "%s dim %d metric %s" % (flavor, len(signature), signature)


def _validation_row(check, rep):
    return CheckResult(check, rep.ok, len(rep.violations),
                       "-" if rep.ok else rep.describe())


def validation_parts(algebra, structure, invariant_form):
    """The validate-algebra checks as (check name, fn) parts; `structure`
    and `invariant_form` return the algebra's two validation reports.
    Needs no model, so a broken algebra still gets one row per check."""
    parts = [("algebra-structure", lambda n: _validation_row(n, structure()))]
    if algebra.has_form:
        parts.append(("invariant-form", lambda n: _validation_row(n, invariant_form())))
    return parts


def run_parts(parts, deterministic=False):
    """Run (check name, fn) parts in order; a GvcError other than the
    expansion limit becomes a failed row."""
    results = []
    for check_name, fn in parts:
        t0 = time.monotonic()
        try:
            entry = fn(check_name)
        except ExpansionLimitError:
            raise
        except GvcError as exc:
            entry = CheckResult(check_name, False, witness=str(exc))
        entry.seconds = None if deterministic else time.monotonic() - t0
        results.append(entry)
    return results


def _add(out, p, c=1):
    """out += c * p in place for a polynomial p and a nonzero int or
    Fraction c; returns `out`, whose denominator `finish` reduces."""
    num, den = (c, 1) if type(c) is int else (c.numerator, c.denominator)
    return accumulate(out, ((m, num * n) for m, n in p.terms.items()), den * p.den)


def _carrying(p, gens):
    """The terms of p with a factor that is a jet of one of `gens`."""
    return Poly(p.ctx, {(ev, od): c for (ev, od), c in p.terms.items()
                        if any(v.gen in gens for v, _ in ev) or any(v.gen in gens for v in od)},
                p.den).finish()


def _once(store, key, build):
    """store[key], built by `build()` on first use."""
    if key not in store:
        store[key] = build()
    return store[key]


def _strength_density(L, strength):
    """1/4 h_ij g_lam g_beta F^i_lam,beta F^j_lam,beta over lam != beta,
    with F^r_lam,beta = strength(r, lam, beta) asked for lam < beta, and
    the context, form entries and metric signs of the model's own L
    (`_YangMills`).
    F is antisymmetric in (lam, beta) and h_ji F^j F^i = h_ij F^i F^j, so
    each stored pair i <= j is one table over lam < beta with sign
    g_lam g_beta, times h_ij, or h_ii/2 on the diagonal."""
    ctx, signs = L.ctx, L.signs
    n = len(signs)
    density = ctx.zero()
    for i, j, h in (e for e in L.form_entries if e[0] <= e[1]):
        table = ctx.zero()
        for lam in range(n):
            for beta in range(lam + 1, n):
                add_product(table, strength(i, lam, beta),
                            strength(j, lam, beta), signs[lam] * signs[beta])
        _add(density, table, Fraction(h) / 2 if i == j else h)
    return density.finish()


class _YangMills(Lagrangian):
    """The model's own L, the strength density (`_strength_density`), with
    the strength F^r_lam,mu in jets and its algebra-quadratic twist per
    (r, lam, mu), each kept once built.  The density is built when first
    read: while its slot is empty, reading it falls through to
    `__getattr__`.  It holds the context, the fields, the constants, the
    form entries and the metric signs, and no model: the model keeps it,
    and a path from it back to the model would be a cycle that only the
    cycle collector frees."""

    __slots__ = ("field", "constants_by_r", "form_entries", "signs", "memo")

    def __init__(self, ctx, field, constants, form_entries, signs):
        self.ctx, self.field, self.form_entries, self.signs = ctx, field, form_entries, signs
        self.constants_by_r = [[e for e in constants if e[0] == r] for r in range(len(field))]
        self.memo = {}

    def __getattr__(self, name):
        if name != "density":
            raise AttributeError(name)
        self.density = _strength_density(self, self.strength)
        return self.density

    def twist(self, r, lam, mu):
        """The algebra-quadratic part of the split, c^r_ij a^i_lam a^j_mu."""
        return _once(self.memo, ("twist", r, lam, mu), lambda: self._twist_sum(r, lam, mu))

    def _twist_sum(self, r, lam, mu):
        ctx = self.ctx
        out = ctx.zero()
        for _, i, j, c in self.constants_by_r[r]:
            _add(out, ctx.product(c, (ctx.jet(self.field[i][lam]),
                                      ctx.jet(self.field[j][mu]))))
        return out.finish()

    def strength(self, r, lam, mu):
        """Antisymmetric half of the split first jets (the curvature), built for
        lam < mu: graded antisymmetric constants give F_mu,lam = -F_lam,mu, F_lam,lam = 0."""
        ctx = self.ctx
        return _once(self.memo, ("strength", r, lam, mu), lambda: (
            ctx.var(self.field[r][mu], lam) - ctx.var(self.field[r][lam], mu)
            + self.twist(r, lam, mu) if lam < mu
            else -self.strength(r, mu, lam) if lam > mu else ctx.zero()))


class GaugeModel:
    """A Yang-Mills system over a validated Lie (super)algebra.

    The generator roster, split coordinates included, and the field-antifield
    pairing are fixed at construction, which ends by freezing the context,
    and so are the algebra's graded constants and form entries.  The
    strength per direction pair is kept in the model's own L (`_YangMills`),
    and each derived object that several checks use (the validation
    reports, the momentum per direction pair, the Lagrangian, the field
    equations, the Noether rows and residuals, the gauge, parameter and BRST
    operators and the BRST square, the paired sums, the parts of the gauge
    and parameter derivations by direction and their Lie derivatives, the
    Lepage form, the algebra maps and their representative directions, each
    first jet's image under phi, and the partials of phi(L) with the
    contraction row per direction) is built on first use and kept with its
    source (L, s, the Noether rows or a gauge derivation), so one installed
    later is built and split anew, and its checks run whole.
    """

    # Checks a model with an odd direction runs its pipelines without.
    # They pass on graded models too (`TestContractionRows` proves the
    # graded identity): the gate only keeps the graded golden reports
    # byte-identical until its removal is decided (ROADMAP.md).
    EVEN_ONLY_CHECKS = ("parameter-symmetry", "current-conservation", "superpotential",
                        "utiyama-contraction")

    def __init__(self, algebra, metric, max_jet_order=DEFAULT_MAX_JET_ORDER,
                 term_limit=DEFAULT_TERM_LIMIT):
        self.structure = check_structure(algebra)
        if not self.structure.ok:
            raise GvcError("algebra fails validation: %s" % self.structure.describe())
        self.algebra = algebra
        self.metric = metric
        self.all_even = all(p == EVEN for p in algebra.parities)
        ctx = Context(metric.dim, max_jet_order=max_jet_order, term_limit=term_limit)
        self.ctx = ctx
        m, n = algebra.dim, metric.dim
        self.constants = algebra.graded_constants()
        self.form_entries = algebra.graded_form()
        # per algebra index r, the entries holding r where a builder looks
        self._constants_by_i = [[e for e in self.constants if e[1] == r] for r in range(m)]
        self._form_by_i = [[e for e in self.form_entries if e[0] == r] for r in range(m)]
        kinds = ["even-field" if p == EVEN else "odd-field" for p in algebra.parities]
        self.field = [[ctx.add_generator(
            "a%d_%d" % (r + 1, mu), kinds[r], algebra.parities[r],
        ) for mu in range(n)] for r in range(m)]
        self.ghost = [ctx.add_generator(
            "c%d" % (r + 1), "ghost", (algebra.parities[r] + 1) % 2,
            ghost_number=1, antifield_number=-1,
        ) for r in range(m)]
        self.antifield = [[ctx.add_generator(
            "abar%d_%d" % (r + 1, mu), "antifield", (algebra.parities[r] + 1) % 2,
            ghost_number=-1, antifield_number=1,
        ) for mu in range(n)] for r in range(m)]
        self.noether_antifield = [ctx.add_generator(
            "cbar%d" % (r + 1), "noether-antifield", algebra.parities[r],
            ghost_number=-2, antifield_number=2,
        ) for r in range(m)]
        self.parameter = [ctx.add_generator("xi%d" % (r + 1), kinds[r], algebra.parities[r])
                          for r in range(m)]
        # strength and symmetric split coordinates of the invariance conditions
        # and of the gauge Lie derivatives, and the set of both
        self.aux_strength = {}
        self.aux_sym = {}
        for r in range(m):
            for lam in range(n):
                for mu in range(lam, n):
                    if mu > lam:
                        self.aux_strength[(r, lam, mu)] = ctx.add_generator(
                            "Fs%d_%d%d" % (r + 1, lam, mu), kinds[r], algebra.parities[r])
                    self.aux_sym[(r, lam, mu)] = ctx.add_generator(
                        "Ss%d_%d%d" % (r + 1, lam, mu), kinds[r], algebra.parities[r])
        self._field_at = {gen: (r, mu) for r in range(m) for mu, gen in enumerate(self.field[r])}
        # each field to its antifield, each ghost to its degree-two antifield
        self._pairs = {self.field[r][mu]: self.antifield[r][mu]
                       for r in range(m) for mu in range(n)}
        self._pairs.update(zip(self.ghost, self.noether_antifield))
        self._yang_mills = _YangMills(ctx, self.field, self.constants, self.form_entries,
                                      metric.signs)
        self._memo = {}
        ctx.freeze()

    def _once(self, key, build):
        return _once(self._memo, key, build)

    def algebra_maps(self):
        """The algebra's signed automorphisms (pi, s), e_r -> s_r e_pi(r),
        found on first use."""
        return self._once("algebra-maps", lambda: signed_automorphisms(self.algebra))

    def form_report(self):
        """Validation report of the invariant form."""
        return self._once("form-report", lambda: check_invariant_form(self.algebra))

    # -- strength and splitting -----------------------------------------

    def strength(self, r, lam, mu):
        """The curvature F^r_lam,mu in jets, kept (`_YangMills.strength`)."""
        return self._yang_mills.strength(r, lam, mu)

    # -- Lagrangians ------------------------------------------------------

    def ym_lagrangian(self, validate=True):
        """Quadratic strength Lagrangian for the stored invariant form, the
        model's own, kept.  The form is validated at once; the density in
        jets is built when first read (`_YangMills`), which phi(L), the
        contraction rows that give the gauge Lie derivatives and the kept
        E(L) before its first fill never do."""
        if not self.algebra.has_form:
            raise GvcError("the quadratic Lagrangian needs an invariant form")
        if validate and not self.form_report().ok:
            raise GvcError("invariant form fails validation: %s"
                           % self.form_report().describe())
        return self._once("lagrangian", lambda: self._yang_mills)

    # -- field equations ----------------------------------------------------

    def momentum(self, r, mu, kappa):
        """dL/d(jet) in closed form: the metric-contracted strength, antisymmetric like it."""
        return self._once(("momentum", r, mu, kappa), lambda: (
            self._momentum(r, mu, kappa) if mu < kappa
            else -self.momentum(r, kappa, mu) if mu > kappa else self.ctx.zero()))

    def _momentum(self, r, mu, kappa):
        out = self.ctx.zero()
        sign = self.metric.signs[mu] * self.metric.signs[kappa]
        for _, j, h in self._form_by_i[r]:
            add_product(out, self.ctx.scalar(h), self.strength(j, mu, kappa), sign)
        return out.finish()

    def closed_euler_lagrange(self, fields=None):
        """Field equations assembled from the closed expression: total
        derivative of the momentum plus the algebra-twisted momentum,
        each component summed in one table; on `fields` alone when given."""
        ctx = self.ctx
        n = self.metric.dim
        comps = {}
        for r, row in enumerate(self.field):
            for mu in (mu for mu in range(n) if fields is None or row[mu] in fields):
                acc = ctx.zero()
                for kappa in range(n):
                    pi = self.momentum(r, mu, kappa)
                    if not pi.is_zero():
                        add_total_derivative(acc, kappa, pi)
                    for i, _, fld, c in self._constants_by_i[r]:
                        pii = self.momentum(i, mu, kappa)
                        if not pii.is_zero():
                            add_product(acc, c * ctx.var(self.field[fld][kappa]), pii)
                if acc.terms:
                    comps[row[mu]] = acc.finish()
        return EulerLagrange(ctx, comps)

    def generic_euler_lagrange(self):
        """E(L) by variational derivatives, kept with L; each E_z is built
        when a check first reads it (`EulerLagrange.by_field`)."""
        L = self.ym_lagrangian()
        return self._once(("euler-lagrange", L), lambda: EulerLagrange.by_field(L))

    # -- Noether structure ----------------------------------------------------

    def noether_operator(self):
        """Rows annihilating the field equations: the algebra-twisted
        divergence, one row per algebra direction."""
        return self._once("noether-operator", self._noether_rows)

    def _noether_rows(self):
        ctx = self.ctx
        m, n = self.algebra.dim, self.metric.dim
        rows = {j: [] for j in range(m)}
        for r, j, i, c in self.constants:
            for lam in range(n):
                rows[j].append((c * ctx.var(self.field[i][lam]), self.field[r][lam], ()))
        for j in range(m):
            for lam in range(n):
                rows[j].append((ctx.one(), self.field[j][lam], (lam,)))
        return NoetherOperator(ctx, {self.noether_antifield[j].name: rows[j]
                                     for j in range(m)})

    def _noether_residuals(self):
        """The Noether rows N_q(E), kept with the rows and E: zero where
        their route runs (`_detour`), else applied to E.  Comparing E(L)
        with the model's own builds none of its components."""
        op, el = self.noether_operator(), self.generic_euler_lagrange()
        return self._once(("noether-residuals", op, el), lambda: (
            dict.fromkeys(op.rows, self.ctx.zero()) if self._detour("noether-identities") is None
            else noether_residuals(op, el)))

    def koszul_tate(self):
        op = self.noether_operator()
        return self._once(("koszul-tate", self.ym_lagrangian(), op), lambda: koszul_tate(
            op, self.generic_euler_lagrange(), self._pairs))

    # -- orbit reduction ---------------------------------------------------------

    def _representatives(self, check):
        """The smallest algebra direction of each orbit of the algebra maps
        (`orbit_roots`), kept once per model, where the orbit route of
        `check` runs (`_detour`); else None, and the whole table runs.  A
        map (pi, s) keeps c and h (`signed_automorphisms`), so
        e_r -> s_r e_pi(r) on every generator of direction r keeps the
        pairing and fixes the objects the route reads (L, E(L), u, the
        ghost sector, s and the parameter symmetry), built from c, h and
        the metric alone: it commutes with the field equations by both
        routes and with each derivation, and carries each residual of
        direction r onto pi(r)'s up to sign."""
        if self._detour(check):
            return None
        return self._once("representatives", lambda: orbit_roots(self.algebra_maps(),
                                                                  self.algebra.dim))

    # -- symmetries -------------------------------------------------------------

    def _gauge_components(self, sources):
        """Shared shape of the gauge transformation: the derivative of the
        source plus the algebra twist, for ghosts or parameter fields."""
        ctx = self.ctx
        n = self.metric.dim
        comps = {self.field[r][mu]: ctx.var(sources[r], mu)
                 for r in range(self.algebra.dim) for mu in range(n)}
        for r, j, i, c in self.constants:
            for mu in range(n):
                _add(comps[self.field[r][mu]],
                     ctx.product(-c, (ctx.jet(sources[j]), ctx.jet(self.field[i][mu]))))
        return {gen: comp.finish() for gen, comp in comps.items()}

    def gauge_operator(self):
        """Odd gauge symmetry with ghosts in the parameter slot."""
        return self._once("gauge-operator", lambda: ContactDerivation(
            self.ctx, self._gauge_components(self.ghost), ODD))

    def parameter_symmetry(self):
        """Even gauge symmetry with parameter fields in the ghosts' slot."""
        return self._once("parameter-symmetry", lambda: ContactDerivation(
            self.ctx, self._gauge_components(self.parameter), EVEN))

    def _symmetry(self, kind):
        """The gauge derivation of `kind`, "gauge" (ghosts in the source
        slot) or "parameter", and its sources, one per algebra direction."""
        if kind == "gauge":
            return self.gauge_operator(), self.ghost
        return self.parameter_symmetry(), self.parameter

    def _part(self, kind, directions):
        """The part of the derivation of `kind` whose terms carry the source
        of one of `directions`, kept; all of it for every direction.  Each
        term of the model's components carries one source jet, sources[q]
        of direction q, so the derivation is the sum of the parts of a
        partition of the directions; the part of q alone moves a^q_mu by
        D_mu sources[q] and a^r_mu by -c^r_qi sources[q] a^i_mu."""
        theta, sources = self._symmetry(kind)

        def build():
            if len(directions) == len(sources):
                return theta
            batch = {sources[q] for q in directions}
            return ContactDerivation(self.ctx, {gen: _carrying(comp, batch) for gen, comp
                                                in theta.components.items()}, theta.parity)

        return self._once(("part", theta, directions), build)

    def _by_direction(self, check, residual):
        """The residual of `check`, where residual(directions) is its
        residual on those algebra directions: the Form of the derivation's
        part with their sources (`_part`), or a table by generator on their
        fields and ghosts.  With `_representatives`, what the check reads is
        the model's own, and an algebra map carries direction q's residual
        onto pi(q)'s up to sign: a generator's onto its image's, and a
        Form's as L holds no source and each term of a residual carries one
        source jet, so the parts of two directions share no term (U and W,
        built from c and h, follow).  So the representative directions go
        first, and zero there is zero on the whole; otherwise, or without
        representatives, the whole residual is taken, so a failure reads
        as without maps."""
        reps = self._representatives(check)
        if reps:
            part = residual(reps)
            if all(p.is_zero() for p in (part.values() if isinstance(part, dict) else [part])):
                return part
        return residual(tuple(range(self.algebra.dim)))

    def lie_derivative(self, theta):
        """L_theta L of the Lagrangian, a density: the prolonged derivation
        applied to L's polynomial, times the volume form."""
        return volume(self.ctx).times_poly(prolong_apply(theta, self.ym_lagrangian().density))

    def _lie(self, kind, directions):
        """L_theta L for the part of `directions` (`_part`), kept with the
        derivation, the directions and L: a parameter part's is also its
        current's precondition.

        Where the row route of `kind` runs (`_detour`), phi(theta(L)) = sum
        over q in directions of sources[q] times the contraction row of q
        (`_contraction`): the part of q moves a^r_mu by -c^r_qp sources[q]
        a^p_mu besides D_mu sources[q], and so F covariantly, theta(F^r) =
        -sum_p c^r_qp sources[q] F^p.  phi is invertible on densities free
        of split coordinates, so zero rows give zero, with no part built;
        otherwise the part is prolonged in jets (`lie_derivative`), whose
        Form is the row."""
        theta, L = self._symmetry(kind)[0], self.ym_lagrangian()

        def build():
            if self._detour(kind + "-rows") is None and all(
                    self._contraction(L, q).is_zero() for q in directions):
                return Form.zero(self.ctx)
            return self.lie_derivative(self._part(kind, directions))

        return self._once(("lie", theta, directions, L), build)

    def _whole_lie(self, kind):
        """L_theta L of the whole derivation of `kind`, kept with it and L;
        the gauge operator's is s's on L, which holds fields alone."""
        return self._once(("whole-lie", self._symmetry(kind)[0], self.ym_lagrangian()),
                          lambda: self._by_direction(kind, lambda qs: self._lie(kind, qs)))

    def ghost_sector(self):
        """Quadratic ghost components completing the gauge operator, kept
        read-only: the shortcut routes trust the model's own (`_own`)."""
        return self._once("ghost-sector", lambda: MappingProxyType(self._ghost_components()))

    def _ghost_components(self):
        ctx = self.ctx
        gamma = {}
        for r, i, j, c in self.constants:
            sign = Fraction(1, 2) if self.algebra.parities[i] == ODD else Fraction(-1, 2)
            _add(gamma.setdefault(self.ghost[r], ctx.zero()),
                 ctx.product(sign * c, (ctx.jet(self.ghost[i]), ctx.jet(self.ghost[j]))))
        return {gen: acc.finish() for gen, acc in gamma.items() if acc.terms}

    def brst_operator(self):
        """The BRST derivation s: the gauge operator and the ghost sector,
        kept with the gauge operator."""
        u = self.gauge_operator()
        return self._once(("brst-operator", u), lambda: brst_extend(u, self.ghost_sector()))

    def _paired_sum(self):
        """P_s, the paired sum of the BRST operator against the antifields,
        kept with s."""
        s = self.brst_operator()
        return self._once(("paired-sum", s), lambda: paired_sum(self.ctx, s.components,
                                                                self._pairs))

    def _brst_residuals(self):
        """s^2 on the generators s moves (`_by_direction`): on the fields
        and ghosts of directions qs, or on every one for all of them."""
        s = self.brst_operator()
        return self._once(("brst-residuals", s), lambda: self._by_direction("brst", lambda qs: (
            nilpotency_residuals(s, s.components if len(qs) == self.algebra.dim else [
                g for q in qs for g in self.field[q] + [self.ghost[q]] if g in s.components]))))

    def pairs(self):
        """Field-antifield pairing of the extended algebra: each field to
        its antifield and each ghost to its degree-two antifield."""
        return self._pairs

    def extended_lagrangian(self):
        L, s = self.ym_lagrangian(), self.brst_operator()
        return self._once(("extended-lagrangian", L, s), lambda: proper_solution(
            L, s, self._pairs, self._brst_residuals(), self._paired_sum()))

    # -- shortcut routes ----------------------------------------------------------

    def _own(self, key, built):
        """Whether `built` is the model's own object, the one kept under `key`."""
        return built is self._memo.get(key)

    # Each condition a shortcut route reads, true where it holds; all but
    # the last two hold where an object is the model's own.
    _CONDITIONS = {
        "algebra-maps": lambda m: bool(m.algebra_maps()) and m._own(
            "algebra-maps", m.algebra_maps()),
        "lagrangian": lambda m: m._own("lagrangian", m.ym_lagrangian()),
        "euler-lagrange": lambda m: m._own(("euler-lagrange", m.ym_lagrangian()),
                                           m.generic_euler_lagrange()),
        "gauge-operator": lambda m: m._own("gauge-operator", m.gauge_operator()),
        "parameter-symmetry": lambda m: m._own("parameter-symmetry", m.parameter_symmetry()),
        "noether-operator": lambda m: m._own("noether-operator", m.noether_operator()),
        "ghost-sector": lambda m: m._own("ghost-sector", m.ghost_sector()),
        "brst-operator": lambda m: m._own(("brst-operator", m.gauge_operator()),
                                          m.brst_operator()),
        "extended-lagrangian": lambda m: m._own(
            ("extended-lagrangian", m.ym_lagrangian(), m.brst_operator()),
            m.extended_lagrangian()),
        # the own L is at most first order, so its field equations are
        # second order and the rows and d_h W form third jets: a route that
        # forms none of them where the direct one does, or the other way
        # round, gives the direct route's row only where they fit
        "jets-fit": lambda m: m.ctx.max_jet_order is None or m.ctx.max_jet_order > 2,
        # the kept L_u L is zero
        "gauge-invariant": lambda m: m._whole_lie("gauge").is_zero(),
    }

    # Each shortcut route's conditions, in the order `_detour` tests them.
    _ROUTES = {
        # orbit families: an algebra map fixes what is built from c, h and
        # the metric (`_representatives`)
        "euler-lagrange": ("lagrangian", "euler-lagrange", "algebra-maps"),
        "gauge": ("lagrangian", "gauge-operator", "algebra-maps"),
        "parameter": ("lagrangian", "parameter-symmetry", "algebra-maps"),
        "brst": ("gauge-operator", "ghost-sector", "brst-operator", "algebra-maps"),
        # phi(theta(L)) = sum over q of sources[q] times row q (`_lie`); the
        # jet route forms the sources' second jets
        "gauge-rows": ("lagrangian", "gauge-operator", "jets-fit"),
        "parameter-rows": ("lagrangian", "parameter-symmetry", "jets-fit"),
        # N_q(E(L)) = -delta(u L)/delta C^q for an L holding no ghost, the
        # rows being the adjoint of u's C-coefficients (`_noether_residuals`)
        "noether-identities": ("lagrangian", "noether-operator", "gauge-operator",
                               "euler-lagrange", "jets-fit", "gauge-invariant"),
        # delta(abar_z) = E_z(L) holds no generator delta moves, the own L
        # holding gauge fields alone; where E's jets are out of bound, so
        # are the kept rows', applied to E, which raise its error
        "koszul-tate": ("lagrangian", "noether-operator", "euler-lagrange"),
        # Noether's second theorem, for a symmetry and rows built from the
        # same constants (`_conserved`)
        "current-conservation": ("lagrangian", "parameter-symmetry", "noether-operator",
                                 "jets-fit"),
        # Theta_S^2 = Theta_P^2 for S = L + P_s, the own L holding no
        # antifield and s built from the own u (`_master_equation_parts`)
        "master-equation": ("lagrangian", "extended-lagrangian", "gauge-operator",
                            "brst-operator", "jets-fit", "gauge-invariant"),
    }

    def _detour(self, route):
        """None where the shortcut `route` runs, else the name of the first
        of its conditions that fails."""
        for condition in self._ROUTES[route]:
            if not self._CONDITIONS[condition](self):
                return condition
        return None

    # -- currents --------------------------------------------------------------

    def lepage_form(self):
        """The Lepage form Xi_L of the Lagrangian, which every current
        contracts."""
        L = self.ym_lagrangian()
        return self._once(("lepage-form", L), lambda: lepage_equivalent(L))

    def _chosen(self, directions):
        """`directions`, or every algebra direction when None."""
        return tuple(range(self.algebra.dim)) if directions is None else directions

    def current(self, directions=None):
        """The Noether current -h0(theta | Xi_L) of the parameter symmetry's
        part with the sources of `directions` (all when None), whose own
        L_theta L is its exact-symmetry precondition."""
        directions = self._chosen(directions)
        return noether_current(self._part("parameter", directions), self.ym_lagrangian(),
                               lie=self._lie("parameter", directions),
                               lepage=self.lepage_form())

    def superpotential(self, directions=None):
        """The codegree-two form whose horizontal differential carries the
        off-shell part of the current, or of the part of `directions`."""
        ctx = self.ctx
        n = self.metric.dim
        table = {}
        for nu in range(n):
            for mu in range(nu + 1, n):
                # omega_pair is one word with coefficient +-1
                ((word, sign),) = omega_pair(ctx, nu, mu).terms.items()
                comp = table[word] = ctx.zero()
                for r in self._chosen(directions):
                    add_product(comp, ctx.var(self.parameter[r]), self.momentum(r, nu, mu),
                                sign.constant_term())
        return Form(ctx, {w: comp.finish() for w, comp in table.items()})

    def superpotential_rows(self, directions=None):
        ctx = self.ctx
        rows = []
        for r in self._chosen(directions):
            for mu in range(self.metric.dim):
                rows.append((ctx.var(self.parameter[r]), self.field[r][mu], (), mu))
        return rows

    # -- invariance conditions -------------------------------------------------

    def _jet_image(self, v):
        """phi(v) for the first jet v = a^r_mu;lam, kept: the mean of the
        two split halves for the canonical index order lam <= mu; the
        swapped order needs the quadratic twist restored, since the
        symmetric half is symmetric only up to it."""
        def build():
            (r, mu), (lam,) = self._field_at[v.gen], v.index
            key, var = (r, min(lam, mu), max(lam, mu)), self.ctx.var
            fs = var(self.aux_strength[key]) if lam != mu else self.ctx.zero()
            half = Fraction(1, 2) * (var(self.aux_sym[key]) + (fs if lam < mu else -fs))
            return half + self._yang_mills.twist(r, mu, lam) if lam > mu else half

        return self._once(("phi", v), build)

    def split_coordinates(self, density):
        """Rewrite first jets in the strength/symmetric coordinates: phi,
        which sends each first jet of a field to `_jet_image` and keeps
        every other variable."""
        return density.substitute({v: self._jet_image(v) for v in density.variables()
                                   if len(v.index) == 1 and v.gen in self._field_at})

    def _split(self, L):
        """phi(L) for a first-order density L.  phi is a ring map with
        phi(F^r_lam,mu) = Fs^r_lam,mu, so the model's own strength density
        is built factor-wise from the strength coordinates; any other L is
        rewritten by `split_coordinates`."""
        if self._own("lagrangian", L):
            var, Fs = self.ctx.var, self.aux_strength
            return _strength_density(self._yang_mills, lambda r, lam, mu: var(Fs[(r, lam, mu)]))
        if L.density.max_jet_order() > 1:
            raise GvcError("invariance conditions apply to first-order densities")
        return self.split_coordinates(L.density)

    def _partials(self, L):
        """The left partials of phi(L) (`_split`) along its undifferentiated
        variables, the only ones the invariance conditions read, by
        generator, kept with L."""
        return self._once(("partials", L), lambda: {
            v.gen: p for v, p in self._split(L).partials() if not v.index})

    def _contraction(self, L, q):
        """The contraction row of direction q, kept with L: with the left
        partials of phi(L) (`_partials`),
            -sum over r, p and lam < mu of c^r_qp F^p_lam,mu dL/dF^r_lam,mu,
        the coefficient of xi^q in the variation of L along a constant
        parameter xi, under which F^r moves by c^r_pq F^p xi^q =
        -c^r_qp xi^q F^p: bringing xi^q left past F^p gives (-1)^{|p||q|},
        which graded antisymmetry turns into the sign of c^r_qp."""
        def build():
            ctx, Fs, partial, n = self.ctx, self.aux_strength, self._partials(L), self.metric.dim
            row = ctx.zero()
            for r, _, p, c in self._constants_by_i[q]:
                for lam in range(n):
                    for mu in range(lam + 1, n):
                        dpoly = partial.get(Fs[(r, lam, mu)])
                        if dpoly is not None:
                            add_product(row, ctx.product(c, (ctx.jet(Fs[(p, lam, mu)]),)),
                                        dpoly, -1)
            return row.finish()

        return self._once(("contraction", L, q), build)

    def invariance_conditions(self, L=None):
        """Residual tables for the three gauge-invariance conditions of a
        first-order density, in the split coordinates (`_split`): its
        partials along the symmetric halves, along the undifferentiated
        fields, and the contraction rows (`_contraction`), all zero for an
        invariant density.  Every model computes all three tables;
        `EVEN_ONLY_CHECKS` alone keeps the contraction rows out of graded
        reports.
        """
        if L is None:
            L = self.ym_lagrangian()
        partial, zero = self._partials(L), self.ctx.zero()
        m, n = self.algebra.dim, self.metric.dim
        sym_res = {"S%d_%d%d" % (r + 1, lam, mu): partial.get(gen, zero)
                   for (r, lam, mu), gen in self.aux_sym.items()}
        field_res = {"a%d_%d" % (r + 1, mu): partial.get(self.field[r][mu], zero)
                     for r in range(m) for mu in range(n)}
        return sym_res, field_res, {"q%d" % (q + 1): self._contraction(L, q) for q in range(m)}

    # -- end-to-end -------------------------------------------------------------

    def header(self):
        return model_header(self.algebra.parities, self.metric.signature())

    def pipeline(self, name, deterministic=False):
        """Run one named check pipeline; precondition failures become
        failed entries rather than exceptions."""
        if name not in self.PIPELINES:
            raise GvcError("unknown pipeline %r" % (name,))
        if name != "validate-algebra":
            try:
                self.ym_lagrangian()
            except ExpansionLimitError:
                raise
            except GvcError as exc:
                return [CheckResult(name, False, witness=str(exc))]
        parts = self._PIPELINE_PARTS[name](self)
        if not self.all_even:
            parts = [part for part in parts if part[0] not in self.EVEN_ONLY_CHECKS]
        return run_parts(parts, deterministic)

    # Each pipeline's parts: (check name, fn(check name) -> CheckResult).

    def _validate_algebra_parts(self):
        return validation_parts(self.algebra, lambda: self.structure, self.form_report)

    def _euler_lagrange_parts(self):
        def residual(qs):
            gens = [g for q in qs for g in self.field[q]]
            generic = self.generic_euler_lagrange()
            generic.fill(gens)
            closed = self.closed_euler_lagrange(gens)
            return {g.name: generic.component(g) - closed.component(g) for g in gens}

        return [("euler-lagrange-two-path", lambda n: CheckResult.from_residuals(
            n, self._by_direction("euler-lagrange", residual)))]

    def _conserved(self, directions, residual):
        """The conservation residual of the parameter part of `directions`
        by Noether's second theorem, for any field equations E and current J:
            d_h J - sum_z E_z theta(z) = d_h(J - W - d_H U) + sum_q xi^q N_q(E) vol,
        from `residual`, the superpotential check's J - W - d_H U, and the
        kept Noether rows N_q(E).
        Where both are zero no product and no total derivative is formed."""
        ctx, rows, acc = self.ctx, self._noether_residuals(), self.ctx.zero()
        for q in directions:
            add_product(acc, ctx.var(self.parameter[q]), rows[self.noether_antifield[q].name])
        out = volume(ctx).times_poly(acc.finish())
        return out if residual.is_zero() else d_h(residual) + out

    def _noether_parts(self):
        # each part's current and superpotential residual, shared by this
        # run's last two checks only
        run = {}

        def current(directions):
            return _once(run, directions, lambda: self.current(directions))

        def superpotential(qs):
            return _once(run, ("superpotential", qs), lambda: superpotential_residual(
                current(qs), self.generic_euler_lagrange(), self.superpotential_rows(qs),
                self.superpotential(qs)))

        def conserved(qs):
            if self._detour("current-conservation") is None:
                return self._conserved(qs, superpotential(qs))
            return conservation_residual(self._part("parameter", qs), current(qs),
                                         self.generic_euler_lagrange())

        return [
            ("parameter-symmetry", lambda n: CheckResult.from_form(
                n, self._whole_lie("parameter"))),
            ("noether-identities", lambda n: CheckResult.from_residuals(
                n, self._noether_residuals())),
            ("current-conservation", lambda n: CheckResult.from_form(
                n, self._by_direction("parameter", conserved))),
            ("superpotential", lambda n: CheckResult.from_form(
                n, self._by_direction("parameter", superpotential))),
        ]

    def _koszul_tate_parts(self):
        def kt_check(check):
            # on a degree-two antifield, delta^2 is its row's kept residual
            # (`koszul_tate`); on an antifield it is delta(E_z), zero by
            # construction where the route runs, else squared
            squares = {} if self._detour("koszul-tate") is None else nilpotency_residuals(
                self.koszul_tate(), [g for row in self.antifield for g in row])
            return CheckResult.from_residuals(check, {**squares, **self._noether_residuals()})

        return [("koszul-tate", kt_check)]

    def _brst_parts(self):
        return [("gauge-symmetry", lambda n: CheckResult.from_form(n, self._whole_lie("gauge"))),
                ("brst-nilpotency", lambda n: CheckResult.from_residuals(
                    n, self._brst_residuals()))]

    def _master_equation_parts(self):
        def master(check):
            if any(not p.is_zero() for p in self._brst_residuals().values()):
                return CheckResult(check, False, witness="no nilpotent extension")
            if self._detour("master-equation") is None:
                # Theta_S^2 = Theta_P^2 (brst.py) = Theta_Q for Q = sum_z s^2(z) zbar,
                # and Q is zero with brst-nilpotency: nothing is squared.  L
                # holds no antifield, so Theta_S moves z by E_zbar(S) = +-s(z),
                # nonzero exactly for z in s.components, and zbar by E_z(S) =
                # E_z(L) + E_z(P_s), whose terms cannot cancel: E_z(L)'s hold
                # no antifield, and each of E_z(P_s)'s holds one.  E_z(L) is
                # read only where no E_z(P_s) couples a pair.
                s = self.brst_operator()
                coupled = bool(variational_derivatives(self._paired_sum(), "left", s.components))
                if not coupled:
                    el = self.generic_euler_lagrange()
                    el.fill(s.components)
                    coupled = any(not el.component(z).is_zero() for z in s.components)
            else:
                rep = master_equation_check(self.extended_lagrangian(), self._pairs)
                if not rep.ok:
                    return CheckResult.from_residuals(check, rep.bracket_residuals())
                # Theta_S moves z by E_zbar(S) and zbar by E_z(S), which
                # vanish with S's right ones (S is even)
                moved = rep.derivation.components
                coupled = any(z in moved and zbar in moved for z, zbar in self._pairs.items())
            # a nontrivial solution couples both members of some pair
            if coupled:
                return CheckResult(check, True)
            return CheckResult(check, False, witness="solution is trivial")

        return [("master-equation", master)]

    def _utiyama_parts(self):
        # each table reads the kept partials of phi(L) and contraction rows
        kinds = ("utiyama-strength-dependence", "utiyama-field-independence",
                 "utiyama-contraction")
        return [(kind, lambda n: CheckResult.from_residuals(
            n, dict(zip(kinds, self.invariance_conditions()))[n])) for kind in kinds]

    _PIPELINE_PARTS = {
        "validate-algebra": _validate_algebra_parts,
        "euler-lagrange": _euler_lagrange_parts,
        "noether": _noether_parts,
        "koszul-tate": _koszul_tate_parts,
        "brst": _brst_parts,
        "master-equation": _master_equation_parts,
        "utiyama": _utiyama_parts,
    }
    PIPELINES = tuple(_PIPELINE_PARTS)

    def euler_lagrange_notes(self):
        """Rendered field equations, one line per generator."""
        generic = self.generic_euler_lagrange()
        return ["el %s = %s" % (g.name, generic.component(g).render())
                for g in generic.generators()]

    def full_verification(self, deterministic=False, pipelines=None):
        results = []
        for name in pipelines or self.PIPELINES:
            results.extend(self.pipeline(name, deterministic))
        return Report(self.header(), results)

