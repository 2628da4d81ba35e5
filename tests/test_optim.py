"""AdamW against a hand-executed recurrence, freeze contract, abort path."""

import logging
import math

import numpy as np
import pytest

from voxseg import autodiff as ad
from voxseg.autodiff import ParameterStore
from voxseg.optim import AdamW, AdamWConfig


def _store_with(value, frozen=False, name="w"):
    store = ParameterStore()
    store.add(name, ad.tensor(np.asarray(value, dtype=np.float64),
                              dtype=np.float64), frozen=frozen)
    return store


def test_single_step_matches_hand_recurrence():
    lr, wd, eps = 1e-2, 0.01, 1e-8
    theta0 = 0.5
    store = _store_with([theta0])
    opt = AdamW(store, AdamWConfig(lr=lr, weight_decay=wd, eps=eps))
    store["w"].grad = np.array([1.0])
    assert opt.step()
    # m = 0.1, v = 0.001; bias-corrected m_hat = 1, v_hat = 1
    expected = theta0 * (1 - lr * wd) - lr * (1.0 / (1.0 + eps))
    np.testing.assert_allclose(store["w"].data, [expected], rtol=1e-12)


def test_two_steps_match_hand_recurrence():
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    store = _store_with([1.0])
    opt = AdamW(store, AdamWConfig(lr=lr, beta1=b1, beta2=b2, eps=eps,
                                   weight_decay=0.0))
    theta, m, v = 1.0, 0.0, 0.0
    for t, g in [(1, 0.3), (2, -0.7)]:
        store["w"].grad = np.array([g])
        assert opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_allclose(store["w"].data, [theta], rtol=1e-12)


def test_zero_gradients_zero_decay_unchanged():
    store = _store_with([2.0, -1.0])
    opt = AdamW(store, AdamWConfig(weight_decay=0.0))
    store["w"].grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(store["w"].data, [2.0, -1.0])


def test_frozen_parameter_never_updated():
    store = ParameterStore()
    store.add("frozen", ad.tensor(np.ones(3), dtype=np.float64), frozen=True)
    store.add("free", ad.tensor(np.ones(3), dtype=np.float64), frozen=False)
    before = store["frozen"].data.copy()
    opt = AdamW(store, AdamWConfig())
    for _ in range(5):
        store["frozen"].grad = np.full(3, 7.0)  # adversarial: grad present
        store["free"].grad = np.full(3, 7.0)
        assert opt.step()
    assert np.array_equal(store["frozen"].data, before)  # bitwise
    assert not np.array_equal(store["free"].data, np.ones(3))


def test_missing_gradient_skips_entry():
    store = ParameterStore()
    store.add("a", ad.tensor(np.ones(2), dtype=np.float64))
    store.add("b", ad.tensor(np.ones(2), dtype=np.float64))
    opt = AdamW(store, AdamWConfig(weight_decay=0.0))
    store["a"].grad = np.ones(2)
    opt.step()
    np.testing.assert_array_equal(store["b"].data, np.ones(2))
    assert not np.array_equal(store["a"].data, np.ones(2))


def test_nonfinite_gradient_aborts_step(caplog):
    store = _store_with([1.0])
    opt = AdamW(store, AdamWConfig())
    store["w"].grad = np.array([np.nan])
    with caplog.at_level(logging.WARNING):
        ok = opt.step()
    assert not ok
    assert opt.step_count == 0
    np.testing.assert_array_equal(store["w"].data, [1.0])
    np.testing.assert_array_equal(opt.state()["m"]["w"], [0.0])
    assert any("non-finite" in r.message for r in caplog.records)


def test_state_round_trip():
    store = _store_with([1.0, 2.0])
    opt = AdamW(store, AdamWConfig())
    for g in ([0.1, -0.2], [0.3, 0.4]):
        store["w"].grad = np.asarray(g)
        opt.step()
    state = {"step": opt.state()["step"],
             "m": {k: v.copy() for k, v in opt.state()["m"].items()},
             "v": {k: v.copy() for k, v in opt.state()["v"].items()}}
    store2 = _store_with([1.0, 2.0])
    opt2 = AdamW(store2, AdamWConfig())
    opt2.load_state(state)
    assert opt2.step_count == 2
    np.testing.assert_array_equal(opt2.state()["m"]["w"], state["m"]["w"])


@pytest.mark.parametrize("field,value", [
    ("lr", 0.0), ("beta1", 1.0), ("lr", math.nan), ("lr", math.inf),
    ("eps", math.nan), ("eps", math.inf), ("eps", 0.0), ("eps", -1e-8),
    ("weight_decay", math.nan), ("weight_decay", math.inf), ("weight_decay", -0.01),
])
def test_invalid_config_rejected(field, value):
    """Out-of-range settings fail ``validate``: a nan lr would write nan into
    every trainable parameter on the first step, and eps = 0 gives 0/0
    wherever a gradient is exactly zero."""
    with pytest.raises(ValueError, match="beta" if field == "beta1" else field):
        AdamWConfig(**{field: value}).validate()
