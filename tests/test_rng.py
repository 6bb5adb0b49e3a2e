import numpy as np
import pytest

from multiphoton.errors import ContractError
from multiphoton.rng import derive_rng


def test_same_stream_is_deterministic():
    a = derive_rng(7, "sampling").random(16)
    b = derive_rng(7, "sampling").random(16)
    assert np.array_equal(a, b)


def test_labels_give_distinct_streams():
    a = derive_rng(7, "sampling").random(16)
    b = derive_rng(7, "heralds").random(16)
    assert not np.array_equal(a, b)


def test_indices_give_distinct_streams():
    a = derive_rng(7, "batch", 0).random(16)
    b = derive_rng(7, "batch", 1).random(16)
    assert not np.array_equal(a, b)
    again = derive_rng(7, "batch", 1).random(16)
    assert np.array_equal(b, again)


def test_seeds_give_distinct_streams():
    a = derive_rng(1, "x").random(16)
    b = derive_rng(2, "x").random(16)
    assert not np.array_equal(a, b)


def test_negative_seed_rejected():
    with pytest.raises(ContractError):
        derive_rng(-1, "x")


def test_negative_index_rejected():
    with pytest.raises(ContractError):
        derive_rng(0, "x", -3)


@pytest.mark.parametrize("seed, index", [(1.5, 0), (1.0, 0), (True, 0), (np.float64(1.0), 0),
                                         ("1", 0), (1, 1.5), (1, True), (1, np.bool_(True))])
def test_non_integer_seed_or_index_rejected(seed, index):
    # a float or bool would otherwise be truncated to another seed's stream
    with pytest.raises(ContractError, match="must be an integer"):
        derive_rng(seed, "x", index)


def test_numpy_integers_seed_the_same_stream():
    a = derive_rng(np.int64(7), "x", np.uint8(2)).random(16)
    assert np.array_equal(a, derive_rng(7, "x", 2).random(16))
