from __future__ import annotations

import numpy as np

from polarsim import polar, verify


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
