"""Ordinary Yang-Mills over su(2) on four-dimensional Minkowski space:
gauge symmetry, Noether identities, Koszul-Tate, BRST and the classical
master equation, all checked by exact arithmetic.

Run:  python demos/03_yang_mills_brst.py
"""

from gvc import master_equation_check, nilpotency_residuals, noether_residuals
from gvc.presets import preset_model

model = preset_model("su2")
print("Built:", model.header())
print("  fields:", ", ".join(model.field[r][mu].name
                             for r in range(3) for mu in range(2)), "...")
print("  ghosts:", ", ".join(g.name for g in model.ghost))

print()
print("One strength component (curvature of the gauge field):")
print("  F[1]_{01} =", model.strength(0, 0, 1).render())

print()
print("The gauge operator moves fields by the twisted ghost derivative:")
u = model.gauge_operator()
print("  u(a1_2) =", u.component(model.field[0][2]).render())

print()
print("Exact verification chain:")
L = model.ym_lagrangian()
res = noether_residuals(model.noether_operator(), model.generic_euler_lagrange())
print("  Noether identity residuals all zero:",
      all(p.is_zero() for p in res.values()))
kt = model.koszul_tate()
print("  Koszul-Tate nilpotent:",
      all(p.is_zero() for p in nilpotency_residuals(kt).values()))
s = model.brst_operator()
print("  BRST square zero on generators:",
      all(p.is_zero() for p in nilpotency_residuals(s).values()))

extended = model.extended_lagrangian()
added = extended.density - L.density
print()
print("The extension couples each transform to its antifield; the added")
print("piece has %d monomials and ghost numbers %s." % (
    len(added.terms), sorted(added.ghost_numbers())))
rep = master_equation_check(extended, model.pairs())
print("  bracket {L_E, L_E} variationally trivial:", rep.ok)
print("  generated odd derivation nilpotent:", rep.ok)

print()
print("Full report:")
print(model.full_verification(deterministic=True).render())
