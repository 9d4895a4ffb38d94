import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ckngb.errors import ConfigError, OddNUnsupported
from ckngb.system import (
    BalanceCondition,
    SystemConfig,
    SystemState,
    balanced_masks,
    is_balanced,
    is_balanced_bc1,
    is_balanced_bc2,
    is_balanced_bc3,
    unit_angle,
)
from oracles import bit_matrix_table

BC1, BC2, BC3 = BalanceCondition.BC1, BalanceCondition.BC2, BalanceCondition.BC3


def state(*bits):
    return SystemState.from_bits(bits)


class TestSystemState:
    def test_canonical_index_matches_three_unit_listing(self):
        # all-ones first, all-zeros last
        assert state(1, 1, 1).index == 1
        assert state(1, 1, 0).index == 2
        assert state(1, 0, 1).index == 3
        assert state(0, 0, 0).index == 8

    def test_bit_layout_unit_one_most_significant(self):
        s = state(1, 0, 1, 0)
        assert s.mask == 0b1010
        assert s.bits() == (1, 0, 1, 0)
        assert s.operating_units() == (1, 3)
        assert str(s) == "1010"

    def test_from_units_roundtrip(self):
        s = SystemState.from_units([2, 4], 4)
        assert s.bits() == (0, 1, 0, 1)
        assert SystemState.from_units(s.operating_units(), 4) == s

    def test_capacity_bounds(self):
        with pytest.raises(ConfigError):
            SystemState(0, 31)
        with pytest.raises(ConfigError):
            SystemState(1 << 4, 4)


class TestUnitAngle:
    def test_examples(self):
        assert unit_angle(1, 4) == 0.0
        assert unit_angle(3, 4) == pytest.approx(math.pi)
        assert unit_angle(2, 6) == pytest.approx(math.pi / 3)

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            unit_angle(0, 4)
        with pytest.raises(ConfigError):
            unit_angle(5, 4)


class TestBC3:
    def test_four_unit_cases(self):
        assert is_balanced_bc3(state(1, 0, 1, 0))
        assert not is_balanced_bc3(state(1, 1, 0, 0))
        assert is_balanced_bc3(state(1, 1, 1, 1))

    def test_empty_set_unbalanced(self):
        assert not is_balanced_bc3(SystemState(0, 4))

    def test_exactly_three_balanced_states_for_four_units(self):
        balanced = {m for m in range(16) if is_balanced_bc3(SystemState(m, 4))}
        assert balanced == {0b1111, 0b1010, 0b0101}


class TestBC1:
    def test_four_unit_cases(self):
        assert is_balanced_bc1(state(1, 0, 1, 0))
        assert not is_balanced_bc1(state(1, 1, 0, 0))

    def test_full_hexagon(self):
        assert is_balanced_bc1(state(1, 1, 1, 1, 1, 1))

    def test_odd_n_rejected(self):
        with pytest.raises(OddNUnsupported):
            is_balanced_bc1(SystemState(0b101, 3))

    def test_adjacent_pair_on_hexagon_not_symmetric_enough(self):
        # one symmetry axis exists but no perpendicular partner
        assert not is_balanced_bc1(state(1, 1, 0, 0, 0, 0))


class TestBC2:
    def test_examples(self):
        assert is_balanced_bc2(state(1, 0, 1, 0, 1, 0))
        assert not is_balanced_bc2(state(1, 1, 0, 0, 0, 0))
        assert is_balanced_bc2(state(1, 1, 1, 1))

    def test_empty_set_unbalanced(self):
        assert not is_balanced_bc2(SystemState(0, 6))


class TestDispatch:
    def test_examples(self):
        assert is_balanced(state(1, 0, 1, 0), BC3)
        assert not is_balanced(SystemState(0, 4), BC3)
        assert is_balanced(state(1, 0, 1, 0), BC2)

    def test_bc1_error_propagates(self):
        with pytest.raises(OddNUnsupported):
            is_balanced(SystemState(0b111, 3), BC1)


class TestImplications:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_bc1_implies_bc3(self, n):
        for mask in range(1 << n):
            s = SystemState(mask, n)
            if is_balanced_bc1(s):
                assert is_balanced_bc3(s), f"n={n} mask={mask:0{n}b}"

    @pytest.mark.parametrize("n", list(range(2, 13)))
    def test_bc2_implies_bc3(self, n):
        for mask in range(1 << n):
            s = SystemState(mask, n)
            if is_balanced_bc2(s):
                assert is_balanced_bc3(s), f"n={n} mask={mask:0{n}b}"


class TestMasksAgreeWithScalarPredicates:
    @pytest.mark.parametrize("bc", [BC1, BC2, BC3])
    @pytest.mark.parametrize("n", list(range(2, 13)))
    def test_exhaustive(self, n, bc):
        if bc is BC1 and n % 2:
            with pytest.raises(OddNUnsupported):
                balanced_masks(n, bc)
            return
        expected = np.flatnonzero([is_balanced(SystemState(m, n), bc) for m in range(1 << n)])
        assert balanced_masks(n, bc).tolist() == expected.tolist()

    def test_bc2_rotation_divisors_match_scalar_predicate(self):
        for n in range(2, 13):
            expected = [m for m in range(1 << n) if is_balanced_bc2(SystemState(m, n))]
            assert balanced_masks(n, BC2).tolist() == expected, n

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


@given(st.integers(2, 12), st.data())
def test_bc3_invariant_under_rotation(n, data):
    mask = data.draw(st.integers(0, (1 << n) - 1))
    shift = data.draw(st.integers(0, n - 1))
    rotated = ((mask >> shift) | (mask << (n - shift))) & ((1 << n) - 1)
    assert is_balanced_bc3(SystemState(mask, n)) == is_balanced_bc3(
        SystemState(rotated, n)
    )


@given(st.integers(2, 12), st.integers(0, 4095))
def test_bc3_invariant_under_reflection(n, raw):
    mask = raw & ((1 << n) - 1)
    bits = [(mask >> (n - 1 - p)) & 1 for p in range(n)]
    reflected = SystemState.from_bits([bits[0]] + bits[1:][::-1])
    assert is_balanced_bc3(SystemState(mask, n)) == is_balanced_bc3(reflected)


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
