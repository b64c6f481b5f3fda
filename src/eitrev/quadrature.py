"""Fixed quadrature rules on boundary facets.

All surface integrals in the package (contact couplings, conductance
normalizations, surface L2 norms) use one fixed symmetric rule per facet:
a 3-point Gauss-Legendre rule on segments (2D boundaries, exact to degree 5)
and a 6-point symmetric rule on triangles (3D boundaries, exact to degree 4).
Weights are barycentric and sum to one; physical weights are obtained by
multiplying with the facet measure.
"""

from __future__ import annotations

import numpy as np

# Gauss-Legendre on [0, 1], three points.
_GL3_NODES = np.array([0.5 * (1.0 - np.sqrt(0.6)), 0.5, 0.5 * (1.0 + np.sqrt(0.6))])
_GL3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])

# Symmetric 6-point rule on the reference triangle (two three-point orbits).
_TRI_A = 0.445948490915965
_TRI_B = 0.091576213509771
_TRI_WA = 0.223381589678011
_TRI_WB = 0.109951743655322


def facet_rule(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric quadrature rule for a boundary facet of a `dim`-mesh.

    Returns
    -------
    bary : array, shape (n_q, dim)
        Barycentric coordinates of the nodes with respect to the facet
        vertices (a segment has 2 vertices, a triangle 3).
    weights : array, shape (n_q,)
        Reference weights summing to one.
    """
    if dim == 2:
        bary = np.column_stack([1.0 - _GL3_NODES, _GL3_NODES])
        return bary, _GL3_WEIGHTS.copy()
    if dim == 3:
        a, b = _TRI_A, _TRI_B
        bary = np.array(
            [
                [1.0 - 2.0 * a, a, a],
                [a, 1.0 - 2.0 * a, a],
                [a, a, 1.0 - 2.0 * a],
                [1.0 - 2.0 * b, b, b],
                [b, 1.0 - 2.0 * b, b],
                [b, b, 1.0 - 2.0 * b],
            ]
        )
        weights = np.array([_TRI_WA] * 3 + [_TRI_WB] * 3)
        return bary, weights / weights.sum()
    raise ValueError(f"unsupported mesh dimension {dim}")
