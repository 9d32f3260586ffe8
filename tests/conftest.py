"""Shared fixtures for the test suite.

Heavier artifacts (trained networks, generated datasets, chip instances) are
session-scoped so the suite stays fast; tests that mutate state build their
own instances instead of using these fixtures.

The artifact cache is hermetic: the whole session reads and writes a fresh
temporary cache directory, never the user's ``~/.cache/repro-matic``, so a
stale artifact written by other code cannot fail the suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator import Snnac, SnnacConfig
from repro.datasets import get_benchmark
from repro.experiments.cache import set_default_cache
from repro.nn import Dataset, Network, Trainer, one_hot
from repro.quant import WeightQuantizer


@pytest.fixture(scope="session", autouse=True)
def hermetic_cache(tmp_path_factory):
    """Point ``REPRO_CACHE_DIR`` at a session temp dir and reset the default
    cache; tests that set their own cache env still override it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache")))
        set_default_cache(None)
        yield
    set_default_cache(None)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def toy_dataset():
    """A small, separable 2-class dataset (8 features)."""
    generator = np.random.default_rng(7)
    inputs = generator.normal(size=(400, 8))
    labels = (inputs[:, 0] + 0.5 * inputs[:, 1] - 0.2 * inputs[:, 2] > 0).astype(int)
    return Dataset(
        inputs=inputs,
        targets=one_hot(labels, 2),
        labels=labels,
        name="toy",
    )


@pytest.fixture(scope="session")
def toy_regression_dataset():
    """A small 1-output regression dataset with targets in [0, 1]."""
    generator = np.random.default_rng(11)
    inputs = generator.uniform(0.0, 1.0, size=(300, 4))
    targets = 0.5 * inputs[:, :1] + 0.3 * inputs[:, 1:2] * inputs[:, 2:3] + 0.1
    return Dataset(inputs=inputs, targets=targets, name="toy-regression")


@pytest.fixture(scope="session")
def trained_toy_network(toy_dataset):
    """A trained 8-16-2 sigmoid classifier on the toy dataset."""
    network = Network(
        "8-16-2",
        hidden_activation="sigmoid",
        output_activation="sigmoid",
        loss="binary_cross_entropy",
        seed=5,
    )
    Trainer(network, learning_rate=0.3, epochs=40, batch_size=16, seed=6).fit(toy_dataset)
    return network


@pytest.fixture(scope="session")
def digits_small():
    """A small digit dataset split, shared by training-oriented tests."""
    spec = get_benchmark("mnist")
    dataset = spec.generate(num_samples=800, seed=21)
    train, test = spec.split(dataset, seed=22)
    return spec, train, test


@pytest.fixture()
def small_chip():
    """A small SNNAC instance (modest banks) with deterministic variation."""
    return Snnac(SnnacConfig(num_pes=4, words_per_bank=64, word_bits=16, seed=42))


@pytest.fixture()
def default_quantizer():
    return WeightQuantizer(total_bits=16, frac_bits=13)
