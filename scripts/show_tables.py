#!/usr/bin/env python3
"""Print the symbolic cofactor tables and resultant for a double commutator.

Renders the degree-3 trace cofactor tau, the degree-4 alpha cofactor, the
degree-5 gamma cofactor and res(tau, gamma_inner) in lambda/mu/t notation
for eyeball comparison.
"""

import time

from sl2wiggle.certify import core_polys, prefactor_den, prefactor_num
from sl2wiggle.cli import _NumericParser, _exponents
from sl2wiggle.exact.tpoly import resultant


def main() -> int:
    parser = _NumericParser(description=__doc__)
    parser.add_argument("--dc", type=_exponents, required=True, help="exponents k,l,m,n")
    parser.add_argument("--resultant", action="store_true", help="also print res(tau, gamma_inner)")
    args = parser.parse_args()

    if args.dc.is_trivial():
        parser.error(f"--dc {args.dc.as_list()} gives the trivial word")
    start = time.perf_counter()
    cp = core_polys(args.dc)
    print(f"parameters (k, l, m, n) = {tuple(args.dc.as_list())}")
    print(f"prefactor  = {prefactor_num(args.dc).pretty()}")
    print(f"denominator = {prefactor_den(args.dc).pretty()}")
    print()
    for name, poly in (
        ("tau", cp.tau),
        ("gamma_inner", cp.gamma_inner),
        ("alpha_core", cp.alpha_core),
    ):
        print(f"{name} (degree {poly.degree}):")
        for i, c in enumerate(poly.coeffs):
            print(f"  [t^{i}] {c.pretty()}")
        print()
    if args.resultant:
        res = resultant(cp.tau, cp.gamma_inner)
        print(f"res(tau, gamma_inner) = {res.pretty()}")
    print(f"({time.perf_counter() - start:.2f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
