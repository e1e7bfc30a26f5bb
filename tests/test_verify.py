from __future__ import annotations

import copy

import numpy as np
import pytest

from polarsim import cli, embedding, generate, io, linalg, polar, spectral, verify


def test_nan_output_fails_the_item(monkeypatch):
    # one NaN among the 200 outputs must surface in the metric and the verdict
    original = polar.apply_polar_isometry
    calls = []

    def poisoned(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        if len(calls) == 100:
            result[0][0] = np.nan
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


def _mispair(monkeypatch, spectrum):
    # the route's dilation eigenvalues, moved by ``spectrum`` off their eigenvectors
    original = polar.dilation

    def wrong(a):
        dil = original(a)
        w, v = dil.eig
        return polar.Dilation(eig=(spectrum(w), v), scale=dil.scale)

    monkeypatch.setattr(polar, "dilation", wrong)


def test_qpe_fidelity_grades_fail_on_mispaired_eigenpairs(monkeypatch, tmp_path, capsys):
    # the fidelity comes from the SVD oracle, not from the route's own eigenpairs:
    # negated eigenvalues give each sign to the wrong eigenvector
    _mispair(monkeypatch, np.negative)
    assert not verify.check_qpe_dyadic_exactness(7)[0]
    path = str(tmp_path / "wide.json")
    io.write_matrix(path, generate.random_complex_matrix(3, 5, generate.rng_for(1)))
    assert cli.main(["polar", "--input", path, "--mode", "qpe"]) == 1
    report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert float(report["min_column_fidelity"]) < 0.99
    # on a square full-rank A with no flag branch the negated route is
    # -sign(H), a global phase that no fidelity sees; a rolled spectrum is not
    monkeypatch.undo()
    _mispair(monkeypatch, lambda w: np.roll(w, 1))
    assert not verify.check_condition_number_scaling(7)[0]


def test_core_invariants_tell_the_absolute_value_from_other_functions(monkeypatch):
    # commuting with h alone would pass any function of h, h^3 included
    assert verify.check_core_oracle_invariants(7)[0]
    monkeypatch.setattr(linalg, "hermitian_abs", lambda h: h @ h @ h)
    passed, metrics = verify.check_core_oracle_invariants(7)
    assert not passed
    assert metrics["max_residual"] > 1.0


def test_embedding_spectrum_grades_the_dilation_the_routes_factor(monkeypatch):
    # the item reads the spectrum off hermitian_eig(embed(a)), so a dilation of
    # A/2 halves every eigenvalue and max |lambda| against the SVD's sigma_max
    assert verify.check_embedding_spectrum(7)[0]
    original = embedding.embed
    monkeypatch.setattr(embedding, "embed", lambda a: original(np.asarray(a) / 2))
    passed, metrics = verify.check_embedding_spectrum(7)
    assert not passed
    assert metrics["max_residual"] > 0.1


def _rolled_eigenvectors(monkeypatch):
    # each eigenvalue paired with its neighbour's eigenvector
    original = linalg.hermitian_eig

    def rolled(h):
        w, v = original(h)
        return w, np.roll(v, 1, axis=1)

    monkeypatch.setattr(linalg, "hermitian_eig", rolled)


def _patch_transfer(monkeypatch, defect):
    # the closed form's per-eigenvalue factors (g, h, loss, flag), altered by ``defect``
    original = spectral.transfer_function
    monkeypatch.setattr(spectral, "transfer_function", lambda *a: defect(*original(*a)))


def _conjugated_closed_form(monkeypatch):
    # the closed form applies e^{+i f} on every code; a sign table, exactly
    # real, is its own conjugate, so only the |x| phase table catches it
    _patch_transfer(monkeypatch, lambda g, h, loss, flag: (g.conj(), h, loss, flag))


def _flag_weight_from_h(monkeypatch):
    # the flag probability summed as sum_c K b, which only a 0/1 mask makes sum_c K b^2
    _patch_transfer(monkeypatch, lambda g, h, loss, flag: (g, h, loss, h))


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize(
    "defect", [_rolled_eigenvectors, _conjugated_closed_form, _flag_weight_from_h]
)
def test_pipeline_stage_inverse_fails_on_the_defect_catalogue(monkeypatch, seed, defect):
    # the literal circuit reads the same amplitude pair as the closed form but
    # shares neither its eigenpairs nor its kernel sums, so each defect opens
    # the closed-form gap
    assert verify.check_pipeline_stage_inverse(seed)[0]
    defect(monkeypatch)
    passed, metrics = verify.check_pipeline_stage_inverse(seed)
    assert not passed
    assert metrics["max_closed_form_gap"] > 0.1


# (hermitian_eig, svd) calls per run of a battery item at seed 7
_BATTERY_FACTORIZATIONS = {
    # one dilation and one oracle SVD per matrix, for all three t
    "positive-factor-evolution": (100, 100),
    # one dilation per instance for every pointer width
    "condition-number-scaling": (9, 9),
    # one dilation per case, for the exact and the qpe run alike
    "flag-semantics": (3, 0),
    # rho, the per-step target for the three dt, the deviations' target
    "trotter-step-order": (3, 0),
}


@pytest.mark.parametrize("item", list(_BATTERY_FACTORIZATIONS))
def test_battery_factors_each_instance_once(count_factorizations, item):
    calls = count_factorizations()
    assert verify.run_item(item, 7).passed
    kinds = [name for name, _ in calls]
    assert (kinds.count("eigh"), kinds.count("svd")) == _BATTERY_FACTORIZATIONS[item]


def test_pipeline_stage_inverse_builds_one_power_table_per_walk(monkeypatch):
    # 20 walks, each run through the literal circuit five times
    tables = []
    original = verify.controlled_powers

    def counting(walk, n):
        tables.append(n)
        return original(walk, n)

    monkeypatch.setattr(verify, "controlled_powers", counting)
    assert verify.check_pipeline_stage_inverse(7)[0]
    assert tables == [32] * 20


def _graded_cases():
    # every function of the table, sign with and without a flag threshold, both modes
    for config in (None, spectral.QPEConfig(bits=5)):
        for function in verify.FUNCTIONS:
            for kappa_tilde in (None, 3.0) if function == "sign" else (None,):
                yield function, config, kappa_tilde


def test_graded_run_factors_nothing(count_factorizations):
    # the caller factors A once for the route and once for the oracle; the
    # graded run, grades read included, factors nothing of its own
    rng = generate.rng_for(2901)
    a = generate.random_complex_matrix(3, 4, rng)
    psi = generate.random_state(7, rng)
    dil, res = polar.dilation(a), linalg.svd(a)
    calls = count_factorizations()
    for function, config, kappa_tilde in _graded_cases():
        graded = verify.graded_run(function, dil, res, psi, config, 0.7, kappa_tilde)
        assert graded.deviation() >= 0.0 and graded.fidelity() >= 0.0
    assert calls == []


def test_graded_run_route_never_reads_the_oracle_factorization():
    # grading against the SVD of another matrix moves the grade and leaves the
    # route's branches bit for bit: the route reads only the dilation
    rng = generate.rng_for(2902)
    a, b = (generate.random_complex_matrix(3, 4, rng) for _ in range(2))
    psi = generate.random_state(7, rng)
    dil = polar.dilation(a)
    for function, config, kappa_tilde in _graded_cases():
        right = verify.graded_run(function, dil, linalg.svd(a), psi, config, 0.7, kappa_tilde)
        wrong = verify.graded_run(function, dil, linalg.svd(b), psi, config, 0.7, kappa_tilde)
        np.testing.assert_array_equal(wrong.kept, right.kept)
        np.testing.assert_array_equal(wrong.flagged, right.flagged)
        assert abs(wrong.deviation() - right.deviation()) > 0.1


def test_graded_run_refuses_a_flag_threshold_on_an_evolution():
    a = generate.random_complex_matrix(2, 2, generate.rng_for(2903))
    dil, res = polar.dilation(a), linalg.svd(a)
    with pytest.raises(ValueError, match="sign function only"):
        verify.graded_run("abs", dil, res, np.ones(4) / 2.0, None, 1.0, 3.0)
