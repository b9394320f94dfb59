"""numpy reference geometry for point lists: the distance from points to a
polyline, vectorised over segments, and the symmetric Hausdorff distance,
which bounds how far apart two settled cycle loops may lie.
"""

import numpy as np


def min_dist_to_polyline(points, poly) -> np.ndarray:
    """Distance from each point to the polyline; both are (n, 2)-shaped point lists."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    poly = np.asarray(poly, dtype=float).reshape(-1, 2)
    if len(poly) < 2:
        return np.linalg.norm(points[:, None, :] - poly[None, :, :], axis=2).min(axis=1)
    best = np.full(len(points), np.inf)
    seg_a, seg_b = poly[:-1], poly[1:]
    # chunk the segment axis to bound memory
    for k in range(0, len(seg_a), 512):
        a = seg_a[k : k + 512]
        d = seg_b[k : k + 512] - a
        denom = np.einsum("md,md->m", d, d)
        denom = np.where(denom == 0.0, 1.0, denom)
        tpar = np.clip(np.einsum("nmd,md->nm", points[:, None, :] - a[None, :, :], d) / denom, 0.0, 1.0)
        proj = a[None, :, :] + tpar[..., None] * d[None, :, :]
        best = np.minimum(best, np.linalg.norm(points[:, None, :] - proj, axis=2).min(axis=1))
    return best


def polyline_hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two polylines."""
    return float(max(min_dist_to_polyline(a, b).max(), min_dist_to_polyline(b, a).max()))
