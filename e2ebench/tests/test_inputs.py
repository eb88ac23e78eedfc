import pytest

from e2ebench import inputs
from repro.sparse.suite import build_matrix


@pytest.mark.parametrize("abbr", sorted(inputs.ANALOGS))
def test_seed_zero_reproduces_the_suite_matrix(abbr):
    assert inputs.analog(abbr, 0) == build_matrix(abbr)


def test_other_seeds_give_other_inputs_of_the_same_shape():
    a0, a1 = inputs.analog("stokes", 0), inputs.analog("stokes", 1)
    assert a0.shape == a1.shape
    assert a0 != a1
    assert inputs.analog("stokes", 1) == a1


def test_device_memory_follows_the_runner_rule(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.experiments.runner import device_memory_for

    a = inputs.analog("stokes", 0)
    ref = inputs.reference(a, a)
    assert inputs.device_memory(a, ref.flops, ref.nnz) == \
        device_memory_for("stokes")


def test_reference_fingerprint_is_stable():
    a = inputs.analog("nlp", 3, smoke=True)
    assert inputs.reference(a, a) == inputs.reference(a, a)
