"""The edge-pair width kernel that the difference body's facet normals
(``polytope._difference_hull``) replaced, kept as the oracle ``width3``
is compared against: the face normals and the crosses of every pair of
edge directions, a superset of the directions that can attain the width
(Houle & Toussaint 1988).  Edge directions are deduplicated one at a time,
one ``np.cross`` is taken per pair of directions, and the candidates are
projected 4096 at a time."""

from itertools import combinations

import numpy as np

from circlehold.polytope import WidthResult


def candidate_width_directions(K):
    """Face normals and the normalised crosses of every pair of distinct
    edge directions, sign-normalised, rounded to 14 decimals and unique."""
    n, _ = K.face_planes()
    segs = K.edge_segments()
    dirs = segs[:, 1] - segs[:, 0]
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    uniq = []
    for d in dirs:
        if d[np.argmax(np.abs(d))] < 0:
            d = -d
        if not any(np.linalg.norm(d - u) < 1e-12 for u in uniq):
            uniq.append(d)
    dirs = np.array(uniq)
    cand = [n]
    crosses = []
    for i, j in combinations(range(len(dirs)), 2):
        c = np.cross(dirs[i], dirs[j])
        ln = np.linalg.norm(c)
        if ln > 1e-12:
            crosses.append(c / ln)
    if crosses:
        cand.append(np.array(crosses))
    out = np.vstack(cand)
    flip = out[np.arange(len(out)), np.argmax(np.abs(out), axis=1)] < 0
    out[flip] *= -1
    return np.unique(np.round(out, 14), axis=0)


def width_over(V, cands):
    """Smallest breadth of the points ``V`` over the directions ``cands``,
    4096 at a time; the first direction attaining it wins."""
    best_w = np.inf
    best = None
    for start in range(0, len(cands), 4096):
        chunk = cands[start:start + 4096]
        proj = V @ chunk.T
        w = proj.max(axis=0) - proj.min(axis=0)
        k = int(np.argmin(w))
        if w[k] < best_w:
            best_w = float(w[k])
            best = WidthResult(best_w, chunk[k], int(np.argmin(proj[:, k])),
                               int(np.argmax(proj[:, k])))
    return best
