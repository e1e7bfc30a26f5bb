from __future__ import annotations

import copy

import numpy as np

from polarsim import generate, polar, verify


def test_nan_output_fails_the_item(monkeypatch):
    # one NaN among the 200 outputs must surface in the metric and the verdict
    original = polar.apply_polar_isometry
    calls = []

    def poisoned(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        if len(calls) == 100:
            result.output.top[...] = np.nan
        return result

    monkeypatch.setattr(polar, "apply_polar_isometry", poisoned)
    passed, metrics = verify.check_polar_oracle_equivalence(7)
    assert len(calls) == 200
    assert not passed
    assert np.isnan(metrics["max_error"])


def test_sampled_residuals_match_the_per_unitary_loop():
    # the battery's stacked draw gives the loop's residuals bit for bit, so
    # procrustes-optimality reports what one-at-a-time sampling did
    rng = generate.rng_for(7, 7)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        inst = generate.random_procrustes_instance(n, n, n + int(rng.integers(1, 4)), rng)
        twin = copy.deepcopy(rng)
        loop = np.array(
            [
                np.linalg.norm(generate.random_unitary(n, rng) @ inst.inputs - inst.outputs)
                ** 2
                for _ in range(300)
            ]
        )
        batch = np.concatenate([verify._sampled_residuals(inst, c, twin) for c in (250, 50)])
        np.testing.assert_array_equal(batch, loop)
