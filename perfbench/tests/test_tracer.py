"""The layer trace wraps every binding site and tolerates missing functions."""

import json

import numpy as np
import pytest

import tracer
import workloads


@pytest.fixture
def installed():
    t = tracer.Tracer().install()
    yield t
    t.uninstall()


def test_no_unwrapped_original_remains(installed):
    assert installed.absent == []
    assert installed.unwrapped_sites() == []
    # spectral_norm alone is bound in nine modules
    assert installed.sites >= len(tracer.TRACED) + 8


def test_uninstall_restores_originals():
    from roelab import _jacobi, locality

    original = locality.spectral_norm
    t = tracer.Tracer().install()
    assert locality.spectral_norm is not original
    t.uninstall()
    assert locality.spectral_norm is original is _jacobi.spectral_norm


def test_missing_function_is_absent_not_fatal():
    traced = tracer.TRACED + (("_jacobi", "no_such_function", "time"),
                              ("no_such_module", "f", "time"))
    t = tracer.Tracer(traced).install()
    try:
        assert t.absent == ["_jacobi.no_such_function", "no_such_module.f"]
        assert t.unwrapped_sites() == []
    finally:
        t.uninstall()
    metrics = tracer.layer_metrics({}, t.absent)
    assert metrics["trace.absent"] == (2.0, "count")
    assert metrics["jacobi.jacobi_eigh.calls"] == (0.0, "count")


def test_traced_job_gives_same_output_and_layer_counts(tmp_path, installed):
    from roelab import cli

    job = workloads.Job(0, "cold-cli", "ql-profile", 0, 0)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(job.config))
    assert cli.main([job.kind, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    m = tracer.layer_metrics(installed.summary(), installed.absent)
    assert m["cli.main.calls"][0] == 1
    assert m["locality.ql_value.calls"][0] == 8  # 4 radii, 2 modes
    assert m["locality.corner_norms"][0] > 0
    assert m["jacobi.jacobi_eigh.calls"][0] >= m["locality.corner_norms"][0]
    assert 0 < m["jacobi.jacobi_eigh.mean_n"][0] <= 6
    self_total = sum(v for k, (v, u) in m.items() if u == "s")
    assert self_total == pytest.approx(installed.summary()["top_level_s"], rel=1e-6)


def test_generators_are_counted(installed):
    from roelab import averaging, space, translations

    assert len(list(averaging.all_sign_vectors(3))) == 8
    sp = space.path_graph(3)
    assert len(list(translations.enumerate_r_translations(sp, 0))) == 8
    m = tracer.layer_metrics(installed.summary(), installed.absent)
    assert m["averaging.sign_vectors"] == (8.0, "count")
    assert m["translations.enumerated"] == (8.0, "count")
    # __post_init__ is timed on the class: one FiniteSpace per path_graph
    assert m["space.FiniteSpace.constructed"][0] == 1


def test_cache_hit_ratio(installed):
    from roelab import operator, space, spectral

    sp = space.path_graph(4)
    h = operator.diagonal(sp, np.arange(4.0) + 17.25)
    spectral.unitary_exp(h, 0.5)
    spectral.unitary_exp(h, 0.5)
    m = tracer.layer_metrics(installed.summary(), installed.absent)
    assert m["spectral.hermitian_eig.calls"][0] == 2
    assert m["spectral.eig_cache_hit_ratio"][0] == 0.5
