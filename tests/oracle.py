"""An independent SAP check for the tests, by sympy's linear solver."""

import sympy

from sapforce.graphs import Graph
from sapforce.linalg import RationalMatrix, validate_pattern


def sap_oracle(g: Graph, a: RationalMatrix) -> bool:
    """Independent check that solves AX = O for an explicit symbolic X.

    Materializes the symmetric X with one symbol per non-edge (so the
    Hadamard conditions hold by construction) and asks sympy's linear
    solver whether the zero assignment is the only solution.
    """
    validate_pattern(g, a)
    non_edges = g.non_edges()
    if not non_edges:
        return True
    syms = {e: sympy.Symbol(f"x_{e[0]}_{e[1]}") for e in non_edges}
    n = g.n
    x = sympy.zeros(n, n)
    for (u, v), s in syms.items():
        x[u - 1, v - 1] = s
        x[v - 1, u - 1] = s
    a_s = sympy.Matrix([[sympy.Rational(a.entries[i][j]) for j in range(n)] for i in range(n)])
    product = a_s * x
    equations = [product[i, j] for i in range(n) for j in range(n)]
    solset = sympy.linsolve(equations, list(syms.values()))
    (solution,) = tuple(solset)
    return all(expr == 0 for expr in solution)
