import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ckngb.errors import ConfigError, OddNUnsupported
from ckngb.system import BalanceCondition, SystemConfig, balanced_masks
from oracles import bit_matrix_table

BC1, BC2, BC3 = BalanceCondition.BC1, BalanceCondition.BC2, BalanceCondition.BC3


def balanced(n, bc):
    return set(balanced_masks(n, bc).tolist())


class TestBC3:
    def test_exactly_three_balanced_states_for_four_units(self):
        # 1100, an adjacent pair, is not among them
        assert balanced(4, BC3) == {0b1111, 0b1010, 0b0101}


class TestBC1:
    def test_four_unit_cases(self):
        assert 0b1010 in balanced(4, BC1)
        assert 0b1100 not in balanced(4, BC1)

    def test_full_hexagon(self):
        assert 0b111111 in balanced(6, BC1)

    def test_odd_n_rejected(self):
        with pytest.raises(OddNUnsupported):
            balanced_masks(3, BC1)

    def test_adjacent_pair_on_hexagon_not_symmetric_enough(self):
        # one symmetry axis exists but no perpendicular partner
        assert 0b110000 not in balanced(6, BC1)


class TestBC2:
    def test_examples(self):
        assert 0b101010 in balanced(6, BC2)
        assert 0b110000 not in balanced(6, BC2)
        assert 0b1111 in balanced(4, BC2)


@pytest.mark.parametrize("bc", [BC1, BC2, BC3])
@pytest.mark.parametrize("n", [4, 6])
def test_empty_set_unbalanced(n, bc):
    assert 0 not in balanced(n, bc)


class TestImplications:
    """The balance conditions nest exactly: two perpendicular symmetry axes
    compose to a rotation by pi, so BC1 implies BC2, and a rotational
    symmetry puts the centroid at the origin, so BC2 implies BC3."""

    @pytest.mark.parametrize("n", list(range(2, 21, 2)))
    def test_bc1_implies_bc2(self, n):
        assert balanced(n, BC1) <= balanced(n, BC2)

    @pytest.mark.parametrize("n", list(range(2, 21, 2)))
    def test_bc1_implies_bc3(self, n):
        assert balanced(n, BC1) <= balanced(n, BC3)

    @pytest.mark.parametrize("n", list(range(2, 21)))
    def test_bc2_implies_bc3(self, n):
        assert balanced(n, BC2) <= balanced(n, BC3)


class TestMasksAgreeWithBitMatrixOracle:
    @pytest.mark.parametrize("bc", [BC1, BC2, BC3])
    @pytest.mark.parametrize("n", list(range(2, 17)))
    def test_matches_bit_matrix_oracle(self, n, bc):
        if bc is BC1 and n % 2:
            with pytest.raises(OddNUnsupported):
                bit_matrix_table(n, bc)
            with pytest.raises(OddNUnsupported):
                balanced_masks(n, bc)
            return
        masks = balanced_masks(n, bc)
        assert masks.dtype == np.int64 and masks.ndim == 1
        assert (np.diff(masks) > 0).all()
        assert np.array_equal(masks, np.flatnonzero(bit_matrix_table(n, bc)))

    def test_masks_are_read_only(self):
        masks = balanced_masks(4, BC3)
        with pytest.raises(ValueError):
            masks[0] = 1


GRID = [(n, bc) for n in range(2, 17) for bc in (BC1, BC2, BC3) if bc is not BC1 or n % 2 == 0]


@pytest.mark.parametrize("n,bc", GRID)
def test_balanced_set_closed_under_rotation_and_reflection(n, bc):
    # every condition is geometric, so the dihedral group of the circle maps
    # balanced sets to balanced sets; a one-step rotation and the reflection
    # p -> n - 1 - p generate that group
    masks = balanced_masks(n, bc)
    rotated = (masks >> 1) | ((masks & 1) << (n - 1))
    reflected = np.zeros_like(masks)
    for p in range(n):
        reflected |= ((masks >> p) & 1) << (n - 1 - p)
    assert np.array_equal(np.sort(rotated), masks)
    assert np.array_equal(np.sort(reflected), masks)


@pytest.mark.parametrize("n,bc", GRID)
def test_complement_of_balanced_proper_subset_is_balanced(n, bc):
    # the full set is balanced, so a symmetry or a zero centroid of a set
    # carries over to its complement
    full = (1 << n) - 1
    masks = balanced_masks(n, bc)
    assert masks[-1] == full
    assert np.array_equal(np.sort(full ^ masks[:-1]), masks[:-1])


@given(st.integers(2, 12), st.data())
def test_bc3_invariant_under_rotation(n, data):
    mask = data.draw(st.integers(0, (1 << n) - 1))
    shift = data.draw(st.integers(0, n - 1))
    rotated = ((mask >> shift) | (mask << (n - shift))) & ((1 << n) - 1)
    masks = balanced(n, BC3)
    assert (mask in masks) == (rotated in masks)


@given(st.integers(2, 12), st.integers(0, 4095))
def test_bc3_invariant_under_reflection(n, raw):
    # unit 1 stays, unit i moves to n + 2 - i
    mask = raw & ((1 << n) - 1)
    bits = format(mask, f"0{n}b")
    reflected = int(bits[0] + bits[1:][::-1], 2)
    masks = balanced(n, BC3)
    assert (mask in masks) == (reflected in masks)


class TestSystemConfig:
    def test_valid(self):
        cfg = SystemConfig(4, 2, 0.7, BC3)
        assert (cfg.n, cfg.k, cfg.r, cfg.bc, cfg.shock) == (4, 2, 0.7, BC3, None)

    def test_k_bounds(self):
        with pytest.raises(ConfigError):
            SystemConfig(4, 1, 0.5)
        with pytest.raises(ConfigError):
            SystemConfig(4, 5, 0.5)

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.2, 1.4])
    def test_r_strictly_interior(self, r):
        with pytest.raises(ConfigError):
            SystemConfig(4, 2, r)

    def test_bc1_parity(self):
        with pytest.raises(OddNUnsupported):
            SystemConfig(5, 2, 0.5, BC1)
        SystemConfig(6, 2, 0.5, BC1)

    def test_parse_bc(self):
        assert BalanceCondition.parse("bc3") is BC3
        with pytest.raises(ConfigError):
            BalanceCondition.parse("BC9")
