"""Exact arithmetic in graded-commutative polynomial rings.

Variables are jet coordinates: a base coordinate x^lam, or a generator
(field, ghost, antifield, ...) carrying a symmetric multi-index of
derivative directions.  Even variables commute and carry arbitrary
powers; odd variables anticommute and are square-free.  Every
polynomial is kept in normal form: within a monomial the odd factors
are strictly increasing under a fixed global order, and reordering
signs are tracked exactly with rational coefficients.

Coefficients are fraction-free: each polynomial keeps integer
numerators over one positive denominator, normalised so that the
denominator shares no factor with all the numerators, so it is 1
exactly when the polynomial is integral.  Every kernel loop does int
arithmetic only; a sum in place carries its own denominator and
rescales only when an incoming denominator does not divide it, so an
integral computation never rescales.  A `Fraction` is built only where
a coefficient is shown (`Poly.coeffs`, `constant_term`, `render`).

Each variable carries one order key, a string, so that every comparison
the kernel makes is a single string comparison.
"""

from fractions import Fraction
from math import gcd

EVEN = 0
ODD = 1

# Resource bounds: a model's default maximum jet order, and the monomial
# count of any one expansion (GVC_MAX_TERMS when that is unset).
DEFAULT_MAX_JET_ORDER = 3
DEFAULT_TERM_LIMIT = 10 ** 6

KINDS = (
    "coordinate",
    "even-field",
    "odd-field",
    "antifield",
    "ghost",
    "noether-antifield",
)
_KIND_RANK = {kind: rank for rank, kind in enumerate(KINDS)}


def exact(c, den=1):
    """The canonical coefficient of `c` / `den`, for `c` anything
    `Fraction` accepts: an `int` when it is integral, else a `Fraction`."""
    if type(c) is int and den == 1:
        return c
    c = Fraction(c) / den
    return c.numerator if c.denominator == 1 else c


def _rational(c):
    """(numerator, positive denominator) of a scalar in lowest terms."""
    if type(c) is int:
        return c, 1
    c = Fraction(c)
    return c.numerator, c.denominator


class GvcError(Exception):
    pass


class UnknownGeneratorError(GvcError):
    pass


class ParityError(GvcError):
    pass


class JetOrderError(GvcError):
    pass


class ExpansionLimitError(GvcError):
    pass


class Generator:
    """A registered symbol: base coordinate, field, ghost or antifield."""

    __slots__ = ("name", "kind", "parity", "ghost_number", "antifield_number", "key")

    def __init__(self, name, kind, parity, ghost_number=0, antifield_number=0):
        if type(name) is not str or not name or "\x00" in name:
            raise GvcError("generator name must be a nonempty string without NUL, got %r"
                           % (name,))
        if kind not in _KIND_RANK:
            raise GvcError("unknown generator kind %r" % (kind,))
        if parity not in (EVEN, ODD):
            raise ParityError("parity must be 0 or 1, got %r" % (parity,))
        self.name = name
        self.kind = kind
        self.parity = parity
        self.ghost_number = ghost_number
        self.antifield_number = antifield_number
        # prefix of its variables' order keys (see `Variable`)
        self.key = chr(_KIND_RANK[kind] + 1) + name + "\x00"

    def __repr__(self):
        return "Generator(%r, %r, parity=%d)" % (self.name, self.kind, self.parity)


class Variable:
    """A jet coordinate: a generator together with a symmetric multi-index.

    The global total order used for normal ordering is lexicographic on
    (kind rank, generator name, multi-index); it is fixed as soon as the
    generator is registered and does not depend on creation time.
    `key` encodes that order in one string: chr(rank + 1), the name, a
    NUL, then chr(i + 1) per index entry.  Names hold no NUL and every
    other character is above it, so a name sorts before its extensions
    as in the tuple order.  Variables are interned per context
    (`Context.jet`), so equality and hashing are by identity.  A variable
    holds no reference back to its context, so a dropped context is freed
    at once rather than by the cycle collector; `Context.var` builds the
    polynomial of one variable.
    """

    __slots__ = ("gen", "index", "parity", "key")

    def __init__(self, gen, index):
        self.gen = gen
        self.index = index
        self.parity = gen.parity
        self.key = gen.key + "".join(chr(i + 1) for i in index)

    def __lt__(self, other):
        return self.key < other.key

    @property
    def order(self):
        return len(self.index)

    def render(self):
        if not self.index:
            return self.gen.name
        return "%s;%s" % (self.gen.name, "".join(str(i) for i in self.index))

    def __repr__(self):
        return "Variable(%s)" % self.render()


class Context:
    """Registry of generators, interned jet variables and global limits;
    once frozen it registers no new generator, but still interns jets."""

    def __init__(self, dim, max_jet_order=None, term_limit=DEFAULT_TERM_LIMIT):
        self.dim = dim
        self.max_jet_order = max_jet_order
        self.term_limit = term_limit
        self.frozen = False
        self.generators = {}
        self._vars = {}
        self._raised = {}  # (jet variable, direction) -> raised jet variable
        self.coordinates = []
        for lam in range(dim):
            gen = Generator("x%d" % lam, "coordinate", EVEN)
            self.generators[gen.name] = gen
            self.coordinates.append(self._intern(gen, ()))

    def add_generator(self, name, kind, parity, ghost_number=0, antifield_number=0):
        if self.frozen:
            raise GvcError("context is frozen; cannot register %r" % (name,))
        gen = Generator(name, kind, parity, ghost_number, antifield_number)
        if name in self.generators:
            raise GvcError("generator %r already registered" % (name,))
        if kind == "coordinate":
            raise GvcError("base coordinates are registered by the context")
        self.generators[gen.name] = gen
        return gen

    def freeze(self):
        self.frozen = True

    def generator(self, name):
        try:
            return self.generators[name]
        except KeyError:
            raise UnknownGeneratorError("unknown generator %r" % (name,))

    def _intern(self, gen, index):
        cached = self._vars.get((gen.name, index))
        if cached is None:
            cached = Variable(gen, index)
            self._vars[(gen.name, index)] = cached
        return cached

    def jet(self, gen, index=()):
        """The jet variable of `gen` with the (symmetric) multi-index."""
        if isinstance(gen, str):
            gen = self.generator(gen)
        if gen.name not in self.generators:
            raise UnknownGeneratorError("generator %r not in this context" % (gen.name,))
        index = tuple(sorted(index))
        if gen.kind == "coordinate" and index:
            raise GvcError("base coordinates carry no multi-index")
        for lam in index:
            if not 0 <= lam < self.dim:
                raise GvcError("spacetime index %r out of range" % (lam,))
        if self.max_jet_order is not None and len(index) > self.max_jet_order:
            raise JetOrderError(
                "jet order %d exceeds configured maximum %d for %s"
                % (len(index), self.max_jet_order, gen.name)
            )
        return self._intern(gen, index)

    def raised(self, v, lam):
        """The jet v raised in direction lam, kept per (v, lam); an
        over-order raise is not kept, so it raises on every call."""
        r = self._raised.get((v, lam))
        if r is None:
            r = self._raised[v, lam] = self.jet(v.gen, v.index + (lam,))
        return r

    def coordinate(self, lam):
        return self.coordinates[lam]

    # -- polynomial constructors -------------------------------------

    def zero(self):
        return Poly(self, {})

    def scalar(self, c):
        num, den = _rational(c)
        if num == 0:
            return Poly(self, {})
        return Poly(self, {_ONE: num}, den)

    def one(self):
        return self.scalar(1)

    def var(self, gen, *index):
        """The polynomial of one jet variable: `gen` (a generator or its
        name) with the multi-index."""
        v = self.jet(gen, index)
        m = (((v, 1),), ()) if v.parity == EVEN else ((), (v,))
        return Poly(self, {m: 1})

    def product(self, coeff, factors):
        """Normal form of an ordered product of variables (`normalize`)."""
        return normalize(self, coeff, factors)

    def check_terms(self, n):
        if self.term_limit is not None and n > self.term_limit:
            raise ExpansionLimitError(
                "expansion produced %d monomials (limit %d)" % (n, self.term_limit)
            )


_ONE = ((), ())  # the empty monomial


def _mono_parity(m):
    return len(m[1]) & 1


def _mono_key(m):
    ev, od = m
    return (
        tuple((v.key, e) for v, e in ev),
        tuple(v.key for v in od),
    )


def _mono_render(m, coeff):
    ev, od = m
    parts = []
    for v, e in ev:
        parts.append(v.render() if e == 1 else "%s^%d" % (v.render(), e))
    parts.extend(v.render() for v in od)
    if not parts:
        return str(coeff)
    body = "*".join(parts)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return "%s*%s" % (coeff, body)


def common_denominator(out, den):
    """Make the denominator of the sum `out` a multiple of `den`, and
    return the factor that lifts a numerator over `den` onto it.  `out`
    rescales only when `den` does not divide its denominator, so an
    integral sum never does."""
    have = out.den
    if have % den:
        lift = den // gcd(have, den)
        terms = out.terms
        for m in terms:
            terms[m] *= lift
        have = out.den = have * lift
    return have // den


def accumulate(out, items, den=1):
    """Add a stream of (monomial, nonzero numerator) pairs over the
    denominator `den` into the polynomial `out` in place, dropping
    cancelled monomials, then enforce the context's term limit; returns
    `out`, whose denominator `finish` reduces.  Every kernel sum takes
    this step: here, or inlined in the one hot loop, `add_times`."""
    lift = common_denominator(out, den)
    if lift != 1:
        items = ((m, c * lift) for m, c in items)
    terms = out.terms
    setdefault = terms.setdefault
    for m, c in items:
        # setdefault hashes a new monomial once; the length tells whether
        # it was new
        n = len(terms)
        s = setdefault(m, c)
        if len(terms) == n:
            s += c
            if s:
                terms[m] = s
            else:
                del terms[m]
    out.ctx.check_terms(len(terms))
    return out


def add_product(out, p, q, sign=1):
    """out += sign * p * q (sign +-1) for a polynomial `out`, in place;
    returns `out`, whose denominator `finish` reduces.

    One `add_times` per term of q, which multiplies every term of p by
    it, with the sign and the lift onto `out`'s denominator folded into
    that term's numerator.  A p of one monomial m commutes with a
    parity-homogeneous q up to (-1)^{|m||q|}, so the two swap, that sign
    joins the lift and one call takes all of q; an odd m and a q of
    mixed parity keep the loop.  The term limit is checked at the end."""
    lift = common_denominator(out, p.den * q.den) * sign
    terms = out.terms
    if len(p.terms) == 1 < len(q.terms):
        flip = _mono_parity(next(iter(p.terms))) and q.parity()
        if flip is not None:
            p, q = q, p
            if flip:
                lift = -lift
    items = p.terms.items()
    for (ev, od), c in q.terms.items():
        add_times(terms, items, ev, od, c * lift)
    out.ctx.check_terms(len(terms))
    return out


def add_times(terms, items, evr, odr, c):
    """terms += c * m * (evr, odr) summed over the (monomial m, numerator)
    pairs `items`, in place on a table of numerators: each m stands left
    of the one monomial (evr, odr).  This is the kernel's one monomial
    product; the caller checks the term limit.

    The odd words are merged counting the crossings of the Koszul sign,
    one letter on each side by one comparison, and a pair sharing an odd
    letter is dropped (variables are interned, so `is` compares them).
    A one-factor even part on either side is inserted by a short scan,
    and wider ones merge in `_merge_even`.  Each product is summed into
    `terms` as `accumulate` does."""
    setdefault = terms.setdefault
    nr = len(odr)
    if nr == 1:
        b = odr[0]
        kb = b.key
    single = len(evr) == 1
    if single:
        (x, ex), = evr
        kx = x.key
    for (evv, odv), cv in items:
        if not odv:
            om = odr
            flip = False
        elif not nr:
            om = odv
            flip = False
        elif nr == 1 and len(odv) == 1:
            a = odv[0]
            if a is b:
                continue
            flip = kb < a.key
            om = (b, a) if flip else (a, b)
        else:
            nv = len(odv)
            flip = False
            word = []
            i = j = 0
            while i < nv and j < nr:
                u, w = odv[i], odr[j]
                if u is w:
                    break
                if u.key < w.key:
                    word.append(u)
                    i += 1
                else:
                    # w passes the nv - i letters of odv still to come
                    word.append(w)
                    if (nv - i) & 1:
                        flip = not flip
                    j += 1
            if i < nv and j < nr:
                continue  # the words share a letter
            om = tuple(word) + odv[i:] + odr[j:]
        if not evv:
            em = evr
        elif not evr:
            em = evv
        elif single:
            i = 0
            for u, f in evv:
                if u.key >= kx:
                    if u is x:
                        em = evv[:i] + ((x, f + ex),) + evv[i + 1 :]
                    else:
                        em = evv[:i] + evr + evv[i:]
                    break
                i += 1
            else:
                em = evv + evr
        elif len(evv) == 1:
            (y, ey), = evv
            ky = y.key
            i = 0
            for u, f in evr:
                if u.key >= ky:
                    if u is y:
                        em = evr[:i] + ((y, f + ey),) + evr[i + 1 :]
                    else:
                        em = evr[:i] + evv + evr[i:]
                    break
                i += 1
            else:
                em = evr + evv
        else:
            em = _merge_even(evv, evr)
        cc = -c * cv if flip else c * cv
        m = (em, om)
        k = len(terms)
        s = setdefault(m, cc)
        if len(terms) == k:
            s += cc
            if s:
                terms[m] = s
            else:
                del terms[m]


def _merge_even(ev1, ev2):
    """The product of two sorted even parts, each of two factors or more:
    concatenated when one ends below the other's start, else merged by
    exponent."""
    if ev1[-1][0].key < ev2[0][0].key:
        return ev1 + ev2
    if ev2[-1][0].key < ev1[0][0].key:
        return ev2 + ev1
    word = []
    i = j = 0
    n1, n2 = len(ev1), len(ev2)
    while i < n1 and j < n2:
        x, y = ev1[i], ev2[j]
        if x[0] is y[0]:
            word.append((x[0], x[1] + y[1]))
            i += 1
            j += 1
        elif y[0].key < x[0].key:
            word.append(y)
            j += 1
        else:
            word.append(x)
            i += 1
    return tuple(word) + ev1[i:] + ev2[j:]


def _partial_terms(items, v, side):
    """Numerators of the partial derivative along `v` of the (monomial,
    numerator) pairs `items`, over their denominator; pairs without `v`
    contribute nothing.  Distinct monomials have distinct partials, so
    nothing merges."""
    out = {}
    key = v.key
    if v.parity == EVEN:
        for (ev, od), c in items:
            for pos, (w, e) in enumerate(ev):
                if w is v or w.key == key:
                    if e == 1:
                        out[(ev[:pos] + ev[pos + 1 :], od)] = c
                    else:
                        out[(ev[:pos] + ((w, e - 1),) + ev[pos + 1 :], od)] = c * e
                    break
    else:
        for (ev, od), c in items:
            for pos, w in enumerate(od):
                if w is v or w.key == key:
                    flips = pos if side == "left" else len(od) - 1 - pos
                    out[(ev, od[:pos] + od[pos + 1 :])] = -c if flips & 1 else c
                    break
    return out


class Poly:
    """Exact-rational linear combination of normal-ordered monomials.

    `terms` maps each monomial to a nonzero `int` numerator, all over the
    one positive denominator `den`, and gcd(den, numerators) is 1; so
    `den` is 1 exactly when every coefficient is integral, and equal
    polynomials have equal `terms` and `den`.  `coeffs` gives the
    coefficients themselves.  A polynomial is also the accumulator of the
    kernel's sums in place (`accumulate`, `add_product`,
    `jets.add_total_derivative`), which leave `den` unreduced; such a sum
    ends with `finish`.
    """

    __slots__ = ("ctx", "terms", "den")

    def __init__(self, ctx, terms, den=1):
        self.ctx = ctx
        self.terms = terms
        self.den = den

    def finish(self):
        """Reduce `den` against the numerators, in place; returns self."""
        den = self.den
        if den != 1:
            g = gcd(den, *self.terms.values())
            if g != 1:
                self.den = den // g
                terms = self.terms
                for m in terms:
                    terms[m] //= g
        return self

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.den == other.den and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        raise TypeError("Poly is unhashable")

    def __neg__(self):
        return Poly(self.ctx, {m: -c for m, c in self.terms.items()}, self.den)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        out = Poly(self.ctx, dict(self.terms), self.den)
        return accumulate(out, other.terms.items(), other.den).finish()

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        out = Poly(self.ctx, dict(self.terms), self.den)
        negated = ((m, -c) for m, c in other.terms.items())
        return accumulate(out, negated, other.den).finish()

    def __mul__(self, other):
        if isinstance(other, Poly):
            return add_product(Poly(self.ctx, {}), self, other).finish()
        num, den = _rational(other)
        if num == 0:
            return Poly(self.ctx, {})
        return Poly(self.ctx, {m: c * num for m, c in self.terms.items()},
                    self.den * den).finish()

    def __rmul__(self, other):
        # scalars commute with everything
        return self.__mul__(other)

    def __pow__(self, n):
        if n < 0:
            raise GvcError("negative powers are not defined")
        out = self.ctx.one()
        for _ in range(n):
            out = out * self
        return out

    # -- grading -------------------------------------------------------

    def parity(self):
        """0 or 1 for homogeneous polynomials, None for mixed, 0 for zero."""
        p = None
        for m in self.terms:
            mp = _mono_parity(m)
            if p is None:
                p = mp
            elif p != mp:
                return None
        return 0 if p is None else p

    def require_parity(self):
        p = self.parity()
        if p is None:
            raise ParityError("polynomial is not parity-homogeneous")
        return p

    def ghost_numbers(self):
        out = set()
        for ev, od in self.terms:
            g = sum(v.gen.ghost_number * e for v, e in ev)
            g += sum(v.gen.ghost_number for v in od)
            out.add(g)
        return out

    def coeffs(self):
        """Each monomial's coefficient: an `int` when it is integral, else
        a `Fraction`."""
        return {m: exact(c, self.den) for m, c in self.terms.items()}

    def constant_term(self):
        return exact(self.terms.get(_ONE, 0), self.den)

    # -- structure -----------------------------------------------------

    def variables(self):
        out = set()
        for ev, od in self.terms:
            for v, _ in ev:
                out.add(v)
            out.update(od)
        return out

    def max_jet_order(self):
        orders = [v.order for v in self.variables() if v.gen.kind != "coordinate"]
        return max(orders) if orders else 0

    def deriv(self, v, side="left"):
        """Graded partial derivative with respect to the variable `v`.

        Left derivatives peel the factor from the front of the odd word,
        right derivatives from the back; both satisfy the graded Leibniz
        rule of the respective convention.
        """
        if side not in ("left", "right"):
            raise GvcError("side must be 'left' or 'right'")
        if v.gen.name not in self.ctx.generators:
            raise UnknownGeneratorError("variable %s not registered here" % v.render())
        return Poly(self.ctx, _partial_terms(self.terms.items(), v, side), self.den).finish()

    def partials(self, side="left", gens=None, index=None):
        """Yield (variable, nonzero partial derivative) for every variable
        that occurs, in order of first occurrence; when `gens` (a
        collection of generators) is given, only for the variables whose
        generator is in it.

        One pass indexes the terms by the variables they contain
        (`terms_by_variable`), or `index` is that index, kept by the
        caller, so each call reads only its variables' terms; each partial
        is then built from its own terms when it is reached, so one partial
        at a time is alive.  Each value equals `deriv(v, side)`.
        """
        if side not in ("left", "right"):
            raise GvcError("side must be 'left' or 'right'")
        if index is None:
            index = self.terms_by_variable(gens)
        for v, items in index.items():
            if gens is None or v.gen in gens:
                yield v, Poly(self.ctx, _partial_terms(items, v, side), self.den).finish()

    def terms_by_variable(self, gens=None):
        """Each variable that occurs (whose generator is in `gens`, when
        given), in order of first occurrence, to the (monomial, numerator)
        pairs of the terms holding it: one walk, references only."""
        index = {}
        for item in self.terms.items():
            ev, od = item[0]
            for v, _ in ev:
                if gens is None or v.gen in gens:
                    index.setdefault(v, []).append(item)
            for v in od:
                if gens is None or v.gen in gens:
                    index.setdefault(v, []).append(item)
        return index

    def substitute(self, mapping):
        """Replace variables simultaneously: `mapping` sends each variable
        to a polynomial of the same parity.

        Each term is rewritten once, as the product of its replaced
        factors' images in normal order times the monomial of its kept
        factors: the even ones commute, and bringing each replaced odd
        letter left past the kept odd letters before it gives the sign.
        Terms without a replaced variable are kept as they are.
        """
        for v, repl in mapping.items():
            if repl.parity() != v.parity and not repl.is_zero():
                raise ParityError("substitution must preserve parity")
        ctx = self.ctx
        powers = {}  # (variable, exponent) -> its replacement's power

        def factor(v, e):
            if (v, e) not in powers:
                powers[(v, e)] = mapping[v] if e == 1 else mapping[v] ** e
            return powers[(v, e)]

        out = Poly(ctx, {})
        for (ev, od), c in self.terms.items():
            moved = [(v, e) for v, e in ev if v in mapping]
            kept_od, crossings = [], 0
            for v in od:
                if v in mapping:
                    moved.append((v, 1))
                    crossings += len(kept_od)
                else:
                    kept_od.append(v)
            if not moved:
                accumulate(out, (((ev, od), c),))
                continue
            prod = factor(*moved[0])
            for v, e in moved[1:]:
                prod = add_product(Poly(ctx, {}), prod, factor(v, e))
            rest = (tuple((v, e) for v, e in ev if v not in mapping), tuple(kept_od))
            add_product(out, prod, Poly(ctx, {rest: -c if crossings & 1 else c}))
        # the numerators summed so far are over this polynomial's denominator
        out.den *= self.den
        return out.finish()

    # -- presentation ----------------------------------------------------

    def render(self):
        if not self.terms:
            return "0"
        items = sorted(self.coeffs().items(), key=lambda it: _mono_key(it[0]))
        parts = []
        for m, c in items:
            txt = _mono_render(m, c)
            if parts and not txt.startswith("-"):
                parts.append("+" + txt)
            else:
                parts.append(txt)
        return " ".join(parts)

    def leading_monomial(self):
        """Canonically first monomial, rendered; '0' for the zero polynomial."""
        if not self.terms:
            return "0"
        m, c = min(self.terms.items(), key=lambda it: _mono_key(it[0]))
        return _mono_render(m, exact(c, self.den))

    def __repr__(self):
        return "Poly(%s)" % self.render()


def normalize(ctx, coeff, factors):
    """Normal form of coeff * v1 * v2 * ... for an ordered factor list.

    The sign is (-1)^(number of transpositions of odd factors needed to
    sort); the result is zero whenever an odd factor repeats.
    """
    num, den = _rational(coeff)
    if num == 0:
        return ctx.zero()
    ev = {}
    od = []
    sign = 1
    for v in factors:
        if isinstance(v, str):
            v = ctx.jet(v)
        if v.gen.name not in ctx.generators:
            raise UnknownGeneratorError("unknown generator %r" % (v.gen.name,))
        if v.parity == EVEN:
            ev[v] = ev.get(v, 0) + 1
        else:
            jumps = 0
            for w in od:
                if w.key == v.key:
                    return ctx.zero()
                if w.key > v.key:
                    jumps += 1
            if jumps & 1:
                sign = -sign
            od.append(v)
            od.sort(key=lambda w: w.key)
    mono = (tuple(sorted(ev.items(), key=lambda it: it[0].key)), tuple(od))
    return Poly(ctx, {mono: sign * num}, den)
