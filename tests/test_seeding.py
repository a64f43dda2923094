import numpy as np
import pytest

from rapklab.initializers import InitScheme, init_matrix
from rapklab.seeding import check_seed, check_size, generator, mix_seed, splitmix64


def test_splitmix64_golden_vector():
    # First output of the reference splitmix64 stream seeded with 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_splitmix64_stays_in_64_bits():
    for v in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
        out = splitmix64(v)
        assert 0 <= out < 2**64


def test_splitmix64_deterministic():
    assert splitmix64(12345) == splitmix64(12345)
    assert splitmix64(12345) != splitmix64(12346)


def test_mix_seed_depends_on_every_stream_key():
    base = mix_seed(7)
    assert mix_seed(7, 0) != base
    assert mix_seed(7, 0) != mix_seed(7, 1)
    assert mix_seed(7, 1, 2) != mix_seed(7, 2, 1)
    assert 0 <= mix_seed(7, 1, 2) < 2**64


def test_mix_seed_deterministic():
    assert mix_seed(99, 3, 1, 4) == mix_seed(99, 3, 1, 4)


def test_generator_reproducible_per_stream():
    a = generator(5, 1).standard_normal(8)
    b = generator(5, 1).standard_normal(8)
    c = generator(5, 2).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
def test_seeds_outside_64_bits_are_rejected_not_aliased(seed):
    # Masked to 64 bits, 2**64 would draw as 0 and -1 as 2**64 - 1.
    for draw in (mix_seed, generator, lambda s: init_matrix(2, 2, InitScheme("xavier_uniform"), s)):
        with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}$"):
            draw(seed)


def test_the_64_bit_range_ends_are_seeds():
    assert check_seed(0) == 0
    assert check_seed(2**64 - 1) == 2**64 - 1
    assert mix_seed(2**64 - 1) == splitmix64(2**64 - 1)


def test_check_size_bounds():
    assert check_size("n", 2**63 - 1) == 2**63 - 1
    assert check_size("n", 2, 2) == 2
    assert check_size("n", -5) == -5  # no least value unless one is given
    with pytest.raises(ValueError, match=r"^n must be >= 2, got 1$"):
        check_size("n", 1, 2)
    for low in (None, 1):  # the size bound comes first
        with pytest.raises(ValueError, match=rf"^n must be < 2\*\*63, got {2**63}$"):
            check_size("n", 2**63, low)
