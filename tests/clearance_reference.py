"""The escape-search clearance kernels that ``holding._SupportGapBound``
replaced, kept as the references its tests compare against: the exact
minimum built as two blocks (critical-angle rows, then crossing rows,
joined and reduced per row), and the coarse grid with the full
8192-angle grid on every face behind it."""

import numpy as np


def two_block_exact(beta, A, B):
    """``min over t of max_f (beta_f + A_f cos t + B_f sin t)`` over the
    critical angle of each sinusoid and every pairwise crossing."""
    ts = np.arctan2(B, A) + np.pi
    crit_cos_A = np.cos(ts)[:, None] * A[None, :]
    crit_sin_B = np.sin(ts)[:, None] * B[None, :]
    i, j = np.triu_indices(len(A), 1)
    dA, dB = A[i] - A[j], B[i] - B[j]
    Rc = np.hypot(dA, dB)
    ok = Rc > 1e-15
    i, j, Rc = i[ok], j[ok], Rc[ok]
    pc = np.arctan2(dB[ok], dA[ok])
    x = (beta[j] - beta[i]) / Rc
    hit = np.abs(x) <= 1.0
    pc, al = pc[hit], np.arccos(x[hit])
    ts = np.concatenate([pc + al, pc - al])[:, None]
    vals = np.concatenate([beta + crit_cos_A + crit_sin_B,
                           beta + np.cos(ts) * A + np.sin(ts) * B])
    return float(vals.max(axis=1).min())


def grid_bound(beta, A, B, n_coarse=128, n_fine=8192):
    """The 128-angle minimum less its Lipschitz slack when positive, else
    the 8192-angle minimum over all angles and faces less its slack."""
    r_max = float(np.hypot(A, B).max(initial=0.0))
    slack = r_max * (np.pi / n_coarse)
    t = np.linspace(0.0, 2.0 * np.pi, n_coarse, endpoint=False)
    coarse = float((beta + np.cos(t)[:, None] * A
                    + np.sin(t)[:, None] * B).max(axis=1).min())
    if coarse - slack > 0.0:
        return coarse - slack
    t = np.linspace(0.0, 2.0 * np.pi, n_fine, endpoint=False)
    fine = float((beta + np.cos(t)[:, None] * A
                  + np.sin(t)[:, None] * B).max(axis=1).min())
    return fine - slack * (n_coarse / n_fine)


def reference_bound(beta, A, B, max_exact_faces=12):
    if len(A) <= max_exact_faces:
        return two_block_exact(beta, A, B)
    return grid_bound(beta, A, B)
