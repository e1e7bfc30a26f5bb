# python3
"""Demo: how many pointer bits does a given condition number cost?

The simulated phase-estimation route reads eigenvalues of the dilation off
a 2^b point grid.  The smallest singular value 1/kappa needs grid spacing
at or below it before the sign function can act on it reliably, which
happens once b >= ceil(log2(4 kappa)).  We sweep b for a few kappa and
watch the fidelity with the classical SVD oracle (``polarsim.verify``, which
shares no factorization with the route) climb to 1 exactly at that width.

The input lives in the right factor, so each singular direction splits
evenly between the +sigma and -sigma halves of the dilation spectrum; a
register too coarse to separate them gets caught at around 50 percent on
the pinched direction instead of passing by luck.
"""

import math

import numpy as np

from polarsim import embedding, linalg, polar, verify
from polarsim.spectral import QPEConfig


def run() -> None:
    for kappa in (2, 8, 32):
        a = np.diag([1.0, 1.0 / kappa]).astype(complex)
        right = np.full(2, 1.0 / math.sqrt(2), dtype=complex)
        psi = embedding.inject_right(right, 2)
        oracle = verify.sign_expected(verify.restricted_isometry(linalg.svd(a), None), psi)
        b_req = math.ceil(math.log2(4 * kappa))
        print(f"kappa = {kappa}  (needs b >= {b_req})")
        dil = polar.dilation(a)
        fids = []
        for bits in range(2, b_req + 3):
            kept, flagged, _ = polar.apply_polar_isometry(dil, psi, config=QPEConfig(bits=bits))
            fid = verify.branch_fidelity(kept, flagged, *oracle)
            fids.append(fid)
            marker = " <- required width" if bits == b_req else ""
            print(f"  b = {bits:2d}   fidelity = {fid:.6f}{marker}")
        assert all(b - a >= -1e-10 for a, b in zip(fids, fids[1:]))
        assert fids[b_req - 2] >= 0.99
        print()
    print("monotone, and converged at the predicted register width: ok")


if __name__ == "__main__":
    run()
