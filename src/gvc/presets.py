"""Built-in model files and the hand-built osp12 algebra.

Preset models are built from their model text alone; the algebra
factory is an independent reference that tests compare it against."""

from fractions import Fraction

from .grassmann import DEFAULT_MAX_JET_ORDER, DEFAULT_TERM_LIMIT, EVEN, ODD
from .superlie import LieSuperalgebra
from .modelfile import parse_model, spec_model


def osp12_algebra():
    """The 3|2-dimensional orthosymplectic superalgebra.

    Constants come from the defining representation on a (1|2)-dimensional
    space: even part h, e, f acting on the odd plane, odd generators
    x = E01 + E20 and y = E02 - E10; the form is the supertrace form of
    that representation scaled by -1/2.  stored_constants() documents the
    nonzero brackets; super-Jacobi is re-verified by brute force in tests.
    """
    alg = LieSuperalgebra(["h", "e", "f", "x", "y"], [EVEN, EVEN, EVEN, ODD, ODD])
    alg.set_constant("e", "h", "e", 2)     # [h, e] = 2e
    alg.set_constant("f", "h", "f", -2)    # [h, f] = -2f
    alg.set_constant("h", "e", "f", 1)     # [e, f] = h
    alg.set_constant("x", "h", "x", -1)    # [h, x] = -x
    alg.set_constant("y", "h", "y", 1)     # [h, y] = y
    alg.set_constant("y", "e", "x", -1)    # [e, x] = -y
    alg.set_constant("x", "f", "y", -1)    # [f, y] = -x
    alg.set_constant("f", "x", "x", 2)     # [x, x] = 2f
    alg.set_constant("e", "y", "y", -2)    # [y, y] = -2e
    alg.set_constant("h", "x", "y", -1)    # [x, y] = -h
    alg.set_form("h", "h", 1)
    alg.set_form("e", "f", Fraction(1, 2))
    alg.set_form("x", "y", 1)
    return alg


PRESET_MODEL_TEXT = {
    "abelian": """\
[model]
dimension = 2
metric = ++
max_jet_order = 3

[algebra]
generator e1 parity 0

[form]
h e1 e1 = 1

[checks]
validate-algebra
euler-lagrange
noether
koszul-tate
brst
master-equation
utiyama
""",
    "su2": """\
[model]
dimension = 4
metric = +---
max_jet_order = 3

[algebra]
generator e1 parity 0
generator e2 parity 0
generator e3 parity 0
c e1 e2 e3 = 1
c e1 e3 e2 = -1
c e2 e3 e1 = 1
c e2 e1 e3 = -1
c e3 e1 e2 = 1
c e3 e2 e1 = -1

[form]
h e1 e1 = 1
h e2 e2 = 1
h e3 e3 = 1

[checks]
validate-algebra
euler-lagrange
noether
koszul-tate
brst
master-equation
utiyama
""",
    "osp12": """\
[model]
dimension = 2
metric = +-
max_jet_order = 3

[algebra]
generator h parity 0
generator e parity 0
generator f parity 0
generator x parity 1
generator y parity 1
c e h e = 2
c f h f = -2
c h e f = 1
c x h x = -1
c y h y = 1
c y e x = -1
c x f y = -1
c f x x = 2
c e y y = -2
c h x y = -1

[form]
h h h = 1
h e f = 1/2
h x y = 1

[checks]
validate-algebra
euler-lagrange
noether
koszul-tate
brst
master-equation
utiyama
""",
}


def preset_model(name, max_jet_order=DEFAULT_MAX_JET_ORDER, term_limit=DEFAULT_TERM_LIMIT):
    """The model built from PRESET_MODEL_TEXT[name]."""
    return spec_model(parse_model(PRESET_MODEL_TEXT[name]), max_jet_order, term_limit)
