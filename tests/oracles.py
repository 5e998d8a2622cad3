"""Test-only reference implementations, kept independent of the production code.

``q_min_pairwise`` is the direct pairwise form of the smooth-convex
interpolation check: it builds each term of Q_ij as its own (B, N, N) array.
The production kernel, ``stepweaver.verify._q_min_raw``, evaluates the same
minimum in Gram form; the tests compare the two.
"""

import numpy as np


def q_min_pairwise(X, G, F, include_star: bool = True):
    """Minimum over all ordered pairs of the smooth-convex interpolation
    quantity Q_ij = 2f_i - 2f_j - 2<g_j, x_i - x_j> - ||g_i - g_j||^2.

    X, G have shape (N, d) or (N, B, d) and F has shape (N,) or (N, B); the
    result is a float or a (B,) array.  ``include_star`` appends the
    minimizer (x, g, f) = 0.
    """
    if include_star:
        X = np.concatenate([X, np.zeros_like(X[:1])])
        G = np.concatenate([G, np.zeros_like(G[:1])])
        F = np.concatenate([F, np.zeros_like(F[:1])])
    # batch axes to the front: (N, B, d) -> (B, N, d); add B=1 if unbatched
    squeeze = X.ndim == 2
    if squeeze:
        X, G, F = X[:, None, :], G[:, None, :], F[:, None]
    Xb = np.moveaxis(X, 0, 1)
    Gb = np.moveaxis(G, 0, 1)
    Fb = np.moveaxis(F, 0, 1)
    gx = np.einsum("bjd,bid->bij", Gb, Xb)  # gx[b,i,j] = <g_j, x_i>
    gxd = np.einsum("bjd,bjd->bj", Gb, Xb)  # <g_j, x_j>
    gg = np.einsum("bid,bjd->bij", Gb, Gb)
    gsq = np.einsum("bid,bid->bi", Gb, Gb)
    Q = (
        2.0 * (Fb[:, :, None] - Fb[:, None, :])
        - 2.0 * (gx - gxd[:, None, :])
        - (gsq[:, :, None] + gsq[:, None, :] - 2.0 * gg)
    )
    return Q.min(axis=(1, 2)) if not squeeze else float(Q.min())
