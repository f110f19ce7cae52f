import tracemalloc

import numpy as np
import pytest

from mixdiff import OracleDenoiser, ToyDistribution, Vocab, make_schedule


@pytest.fixture
def vocab5():
    return Vocab(5, 4)


@pytest.fixture
def vocab3():
    return Vocab(3, 2)


@pytest.fixture
def mask_sched(vocab5):
    return make_schedule("mask", vocab5)


@pytest.fixture
def hybrid_sched(vocab5):
    return make_schedule("hybrid", vocab5, p_u=0.2)


@pytest.fixture
def two_outcome(vocab3):
    return ToyDistribution(vocab3, 2, (((0, 0), 0.5), ((1, 1), 0.5)))


@pytest.fixture
def five_outcome(vocab5):
    return ToyDistribution(
        vocab5,
        3,
        (
            ((0, 1, 2), 0.3),
            ((1, 2, 3), 0.25),
            ((2, 3, 0), 0.2),
            ((3, 0, 1), 0.15),
            ((0, 0, 0), 0.1),
        ),
    )


@pytest.fixture
def two_outcome_oracle(two_outcome):
    sched = make_schedule("mask", two_outcome.vocab)
    return OracleDenoiser(two_outcome, sched), sched


def random_prediction(rng, n, mask_id):
    """A valid denoiser output row: positive on non-mask tokens, zero on mask."""
    p = rng.random(n)
    p[mask_id] = 0.0
    return p / p.sum()


def transient_peak(fn) -> int:
    """Peak traced memory of fn() above what its result keeps."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - current
