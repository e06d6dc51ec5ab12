import pytest

from macckit import MaccParams, SubpacketizationError
from macckit.params import InputError, InputTypeError


def test_valid_triples():
    MaccParams(1, 1, 1)
    MaccParams(3, 2, 3)
    MaccParams(20, 5, 20)


@pytest.mark.parametrize("K,L,N", [(0, 1, 1), (3, 0, 3), (3, 4, 3), (2, 3, 2), (3, 2, 0)])
def test_invalid_triples(K, L, N):
    with pytest.raises(ValueError):
        MaccParams(K, L, N)


def test_one_refusal_type():
    # InputError stays a ValueError, so callers catching ValueError still work
    assert issubclass(InputError, ValueError)
    assert issubclass(SubpacketizationError, InputError)
    with pytest.raises(InputError):
        MaccParams(3, 4, 3)
    # a wrong type is refused as input, and still reads as Python's TypeError
    assert issubclass(InputTypeError, InputError) and issubclass(InputTypeError, TypeError)


def test_non_integer_rejected():
    with pytest.raises(TypeError):
        MaccParams(3.0, 2, 3)
    with pytest.raises(TypeError):
        MaccParams(3, True, 3)
    for K, L in ((3.0, 2), (3, True)):
        with pytest.raises(InputError, match="must be an int"):
            MaccParams(K, L, 3)


def test_frozen_and_hashable():
    params = MaccParams(3, 2, 3)
    with pytest.raises(AttributeError):
        params.K = 4
    assert params == MaccParams(3, 2, 3)
    assert len({params, MaccParams(3, 2, 3)}) == 1
