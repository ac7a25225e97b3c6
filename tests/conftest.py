"""Shared fixtures: tiny trained models and reference oracles are built once
per session where they are expensive."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import pathscope as ps


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_spec():
    """2-input -> fc(2) -> relu -> fc(1): the hand-checkable fixture net."""
    return ps.ModelSpec(
        input_shape=(1, 1, 2),
        num_classes=2,
        layers=(ps.flatten(), ps.fc(2), ps.relu(), ps.fc(2)),
    )


def traced_peak(fn):
    """(fn(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_tiny_weights(hidden=((1.0, 1.0), (1.0, -1.0)), out=((1.0, 1.0), (0.5, 0.5))):
    return {
        "fc1": np.array(hidden, dtype=np.float32),
        "fc2": np.array(out, dtype=np.float32),
    }


@pytest.fixture(scope="session")
def small_conv_model():
    """A random small conv net with pooling, for structural tests."""
    spec = ps.ModelSpec(
        input_shape=(1, 6, 6),
        num_classes=3,
        layers=(
            ps.conv(2, kernel=3, padding=1),
            ps.relu(),
            ps.maxpool(2, 2),
            ps.flatten(),
            ps.fc(3),
        ),
    )
    weights = ps.build_model(spec, 7)
    return spec, weights
