"""Equivalence decisions on the worked example families.

Walks through the decision pipeline on five instructive pairs: the
exceptional two-branch pair, an axis-supported refutation, an iteration
permutation, a coplanar pair whose iterations never match, and a pair
outside the decidable families.
"""
from froblip import Monomial, build_system, decide


def show(label, a, b, **kw):
    v = decide(a, b, **kw)
    print(f"{label}:")
    print(f"  result = {v.result}  reason = {v.reason}")
    if v.certificate:
        print(f"  certificate = {v.certificate}")
    if v.diagnostics:
        d = v.diagnostics
        print(f"  growth diagnostics: gamma_e = {d['gamma_e']:.4f}, "
              f"gamma_f = {d['gamma_f']:.4f}, gap = {d['gap']:.4f}")
    print()


def main():
    show(
        "{l^5, l} vs {l^3, l^2} (the exceptional two-branch pair)",
        build_system([Monomial.make({"l": 5}), Monomial.make({"l": 1})]),
        build_system([Monomial.make({"l": 3}), Monomial.make({"l": 2})]),
    )
    show(
        "{u^2, v} vs {u, v^2} (axis-supported, so coplanar: refuted by "
        "the iteration identity at p = q = 1)",
        build_system([Monomial.make({"u": 2}), Monomial.make({"v": 1})]),
        build_system([Monomial.make({"u": 1}), Monomial.make({"v": 2})]),
    )
    show(
        "(1/2, 1/2) vs (1/4, 1/4, 1/4, 1/4) (iteration permutation)",
        build_system(["1/2", "1/2"]),
        build_system(["1/4", "1/4", "1/4", "1/4"]),
    )
    show(
        "{u^2, u^2, uv, v^2} vs {u, v} (coplanar, and the only iteration "
        "pair with 4^p = 2^q that could match, p = 1 and q = 2, does not: "
        "(u + v)^2 != 2u^2 + uv + v^2)",
        build_system([Monomial.make(d) for d in
                      ({"u": 2}, {"u": 2}, {"u": 1, "v": 1}, {"v": 2})]),
        build_system([Monomial.make({"u": 1}), Monomial.make({"v": 1})]),
    )
    show(
        "(1/2, 1/4, 1/4) vs (1/4, 1/4, 1/4, 1/4) (outside the decidable "
        "families: equal dimension 1, but 3^p = 4^q has no solution)",
        build_system(["1/2", "1/4", "1/4"]),
        build_system(["1/4", "1/4", "1/4", "1/4"]),
        diagnostics=True,
    )


if __name__ == "__main__":
    main()
