import hashlib
import io
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ckngb.chain import (
    MAX_CHAIN_STATES,
    MAX_STATE_UNITS,
    StateChain,
    _row_blocks,
    build_consolidated,
    build_state_chain,
    chain_csv,
    check_up_set,
)
from ckngb.errors import CapacityExceeded, InvariantViolation
from ckngb.system import BalanceCondition, SystemConfig
from ckngb.tiesets import count_profile
from goldens import CONSOLIDATED_ABSORB, CONSOLIDATED_P, TABLE_STATES
from oracles import dense_transition, full_matrix, full_transition_matrix, or_closure

BC1, BC2, BC3 = BalanceCondition.BC1, BalanceCondition.BC2, BalanceCondition.BC3


def index(mask, n):
    """Row of the mask in full_transition_matrix: canonical order, the
    all-ones state first."""
    return (1 << n) - 1 - mask


def nonfailed_masks(n, k, bc):
    masks, _ = build_consolidated(SystemConfig(n, k, 0.5, bc))
    return masks.tolist()


def labels(masks, n):
    return [format(mask, f"0{n}b") for mask in masks]


def dump(n, k, bc, r):
    fh = io.StringIO()
    chain_csv(fh, n, *build_consolidated(SystemConfig(n, k, r, bc)))
    return fh.getvalue()


class TestNonfailedStates:
    def test_reference_listing(self):
        assert labels(nonfailed_masks(4, 2, BC3), 4) == TABLE_STATES

    def test_single_state_systems(self):
        assert labels(nonfailed_masks(2, 2, BC3), 2) == ["11"]
        assert labels(nonfailed_masks(4, 4, BC3), 4) == ["1111"]

    def test_ascending_index(self):
        masks = nonfailed_masks(6, 2, BC3)
        indices = [index(mask, 6) for mask in masks]
        assert indices == sorted(indices)
        assert masks[0] == 0b111111


class TestOneStepProb:
    def test_self_transition_of_full_state(self):
        full = full_transition_matrix(4, 0.7)
        assert full[index(0b1111, 4), index(0b1111, 4)] == pytest.approx(0.2401, abs=1e-15)

    def test_two_failures(self):
        full = full_transition_matrix(4, 0.7)
        assert full[index(0b1111, 4), index(0b1010, 4)] == pytest.approx(0.0441, abs=1e-15)

    def test_revival_impossible(self):
        full = full_transition_matrix(4, 0.7)
        assert full[index(0b1010, 4), index(0b1111, 4)] == 0.0


class TestConsolidated:
    """The consolidated chain as the dump streams it: ``full_matrix``
    stacks its row blocks, the transition in [:-1, :-1] and the absorption
    in the last column."""

    def test_reference_matrix(self):
        full = full_matrix(4, 2, BC3, 0.7)
        assert np.abs(full[:-1, :-1] - CONSOLIDATED_P).max() < 5e-4
        assert np.abs(full[:-1, -1] - CONSOLIDATED_ABSORB).max() < 5e-4

    def test_second_row(self):
        full = full_matrix(4, 2, BC3, 0.7)
        expected = np.array([0.0, 0.343, 0.0, 0.0, 0.147, 0.0, 0.0])
        assert np.abs(full[1, :-1] - expected).max() < 5e-4

    def test_single_transient_state(self):
        full = full_matrix(2, 2, BC3, 0.6)
        assert full[:-1, :-1] == pytest.approx(np.array([[0.36]]))
        assert full[:-1, -1] == pytest.approx(np.array([0.64]))

    @pytest.mark.parametrize("n,k,bc,r", [(4, 2, BC3, 0.7), (6, 3, BC2, 0.5), (6, 2, BC1, 0.9), (7, 3, BC3, 0.3)])
    def test_rows_plus_absorb_are_stochastic(self, n, k, bc, r):
        full = full_matrix(n, k, bc, r)
        P = full[:-1, :-1]
        assert np.abs(P.sum(axis=1) + full[:-1, -1] - 1.0).max() < 1e-12
        assert (P >= 0).all() and (P <= 1).all()

    @pytest.mark.parametrize("n,k,bc,r", [(5, 2, BC3, 0.5), (6, 2, BC2, 0.7), (8, 3, BC3, 0.9)])
    def test_upper_triangular(self, n, k, bc, r):
        P = full_matrix(n, k, bc, r)[:-1, :-1]
        assert not np.tril(P, -1).any()

    def test_row_blocks_equal_state_chain_rows(self):
        # n=12 k=5 BC3 has 1 130 states, so its rows come in two blocks of
        # at most 2**20 entries, each checked against the operator's rows
        masks, blocks = build_consolidated(SystemConfig(12, 5, 0.8, BC3))
        chain = build_state_chain(SystemConfig(12, 5, 0.8, BC3))
        y = np.random.default_rng(12).random(masks.size)
        Py, absorb = zip(*((P @ y[-P.shape[1] :], a) for P, a in blocks))
        assert len(Py) == 2
        assert np.array_equal(masks, chain.masks)
        assert np.abs(np.concatenate(Py) - chain.apply(y)).max() <= 1e-13
        assert np.abs(np.concatenate(absorb) - chain.absorb).max() <= 1e-15

    def test_row_blocks_refuse_masks_out_of_order(self):
        # each block starts at its first row's column, which holds only
        # while every subset of a row's mask comes later in the list
        masks, _ = build_consolidated(SystemConfig(4, 2, 0.7, BC3))
        with pytest.raises(InvariantViolation, match="descend"):
            next(_row_blocks(masks[::-1], 4, 0.7))

    def test_absorb_matches_exact_arithmetic(self):
        # P{M = 1} from the all-ones state is a sum of rare failed
        # successors; formed as 1 - row sum it keeps only 10 or so digits
        n, k, bc, r = 10, 2, BC1, 0.95
        absorb = full_matrix(n, k, bc, r)[:-1, -1]
        rf = Fraction(r)
        exact = sum(
            rf ** mask.bit_count() * (1 - rf) ** (n - mask.bit_count())
            for mask, ok in enumerate(or_closure(n, k, bc).tolist())
            if not ok
        )
        assert abs(Fraction(float(absorb[0])) - exact) <= Fraction(1, 10**13) * exact

    def test_state_cap_refuses_before_building(self):
        with pytest.raises(CapacityExceeded, match="41479"):
            build_consolidated(SystemConfig(16, 4, 0.8, BC3))

    def test_state_cap_refuses_before_listing_the_masks(self):
        # the cap reads the number of states off the count profile, so a
        # large system is refused without a list of its states or a table
        # over its 2**24 masks
        count_profile(24, 6, BC3)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityExceeded, match="need"):
                build_consolidated(SystemConfig(24, 6, 0.8, BC3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 16

    def test_state_cap_admits_every_system_up_to_14_units(self):
        largest = max(
            int(count_profile(n, k, bc).sum())
            for n in range(2, 15)
            for k in range(2, n + 1)
            for bc in (BC2, BC3) + ((BC1,) if n % 2 == 0 else ())
        )
        assert largest == 14199 <= MAX_CHAIN_STATES

    def test_full_matrix_partition(self):
        full = full_matrix(4, 2, BC3, 0.7)
        assert full.shape == (8, 8)
        assert np.abs(full.sum(axis=1) - 1.0).max() < 1e-12
        assert full[-1, -1] == 1.0
        assert not full[-1, :-1].any()


class TestMStep:
    """The paper's m-step transition probability (r^m)^c1 (1 - r^m)^c2: m
    shocks at unit reliability r act as one shock at r^m, since a unit
    survives m shocks with probability r^m."""

    @pytest.mark.parametrize("r", [0.3, 0.7])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_m_shocks_equal_one_shock_at_r_to_the_m(self, n, r):
        full = full_transition_matrix(n, r)
        power = np.eye(1 << n)
        for m in range(1, 7):
            power = power @ full
            # worst measured gap 1.0e-15, at n = 6
            assert np.abs(power - full_transition_matrix(n, r**m)).max() <= 4e-15

    def test_two_step_example(self):
        a, b = index(0b1111, 4), index(0b1010, 4)
        full = full_transition_matrix(4, 0.7)
        assert (full @ full)[a, b] == pytest.approx(0.06245001, abs=1e-12)
        assert full_transition_matrix(4, 0.7**2)[a, b] == pytest.approx(0.06245001, abs=1e-12)

    def test_dead_units_stay_dead(self):
        # five shocks never revive unit 3: 1010 -> 1110 has probability 0,
        # while every subset of 1010 stays reachable
        five = full_transition_matrix(4, 0.7**5)
        assert five[index(0b1010, 4), index(0b1110, 4)] == 0.0
        row = five[index(0b1010, 4)]
        assert [mask for mask in range(16) if row[index(mask, 4)] > 0] == [0b0000, 0b0010, 0b1000, 0b1010]

    @pytest.mark.parametrize("r", [0.3, 0.7])
    @pytest.mark.parametrize("n,k,bc", [(4, 2, BC3), (6, 3, BC2), (6, 2, BC1), (7, 3, BC3)])
    def test_consolidated_chain_powers(self, n, k, bc, r):
        # A shock never leads from a failed state back to a nonfailed one
        # (the nonfailed set is an up-set), so the m-th power of the
        # nonfailed block is the nonfailed block of the m-th power
        P = full_matrix(n, k, bc, r)[:-1, :-1]
        power = np.eye(P.shape[0])
        for m in range(1, 7):
            power = power @ P
            # worst measured gap 1.4e-17
            assert np.abs(power - full_matrix(n, k, bc, r**m)[:-1, :-1]).max() <= 4e-15


class TestFullChain:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_rows_stochastic(self, n):
        full = full_transition_matrix(n, 0.6)
        assert np.abs(full.sum(axis=1) - 1.0).max() < 1e-12


class TestKronecker:
    """The matrix-free one-shock operator over all 2**n masks against the
    dense matrix written entry by entry."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("r", [0.3, 0.7, 0.999])
    def test_step_and_apply_equal_dense_matrix(self, n, r):
        full = full_transition_matrix(n, r)
        # with every mask a state, in canonical order (descending mask), the
        # chain's row and column actions are the whole operator's
        chain = StateChain(np.arange(1 << n)[::-1], n, r)
        rows = np.array([chain.step(e) for e in np.eye(1 << n)])
        assert np.abs(rows - full).max() <= 1e-15
        assert np.abs(dense_transition(chain) - full).max() <= 1e-15

    @pytest.mark.parametrize(
        "n,k,bc,r", [(4, 2, BC3, 0.7), (6, 3, BC2, 0.5), (8, 2, BC1, 0.9), (8, 3, BC3, 0.95)]
    )
    def test_state_chain_equals_dense_chain(self, n, k, bc, r):
        masks, _ = build_consolidated(SystemConfig(n, k, r, bc))
        full = full_matrix(n, k, bc, r)
        chain = build_state_chain(SystemConfig(n, k, r, bc))
        assert np.array_equal(chain.masks, masks)
        assert np.abs(dense_transition(chain) - full[:-1, :-1]).max() <= 1e-15
        assert np.abs(chain.absorb - full[:-1, -1]).max() <= 1e-15
        # v P from the row action equals the column action's matrix
        v = np.random.default_rng(n).random(chain.size)
        assert np.abs(chain.step(v) - v @ full[:-1, :-1]).max() <= 1e-14

    def test_layers_group_states_by_operating_units(self):
        chain = build_state_chain(SystemConfig(6, 2, 0.8, BC3))
        sizes = np.bitwise_count(chain.masks).tolist()
        seen = []
        for rows, stay in chain.layers:
            units = {sizes[i] for i in rows}
            assert len(units) == 1
            s = units.pop()
            assert stay == pytest.approx(0.8**s, rel=1e-15)
            seen += rows.tolist()
        assert sorted(seen) == list(range(chain.size))
        assert [sizes[rows[0]] for rows, _ in chain.layers] == sorted(set(sizes))

    def test_state_cap_refuses_before_building(self):
        with pytest.raises(CapacityExceeded, match=f"n <= {MAX_STATE_UNITS}"):
            build_state_chain(SystemConfig(MAX_STATE_UNITS + 2, 6, 0.8, BC3))

    def test_up_set_check(self):
        chain = build_state_chain(SystemConfig(6, 2, 0.7, BC2))
        check_up_set(chain.masks, 6)
        with pytest.raises(InvariantViolation):
            check_up_set(chain.masks[1:], 6)  # the all-ones state dropped

    def test_absorb_of_any_mask_set_completes_rows(self):
        # absorb sums the failed successors, so every row sums to one even
        # for a set that is not an up-set; check_up_set is what rejects it
        masks = np.array([0b1111, 0b1010, 0b0101, 0b0001])
        chain = StateChain(masks, 4, 0.7)
        rows = chain.apply(np.ones(chain.size)) + chain.absorb
        assert np.abs(rows - 1.0).max() <= 1e-15


class TestConsolidationFidelity:
    @pytest.mark.parametrize("r", [0.3, 0.7])
    @pytest.mark.parametrize("n,k,bc", [(4, 2, BC3), (5, 3, BC3), (6, 2, BC2), (6, 4, BC1)])
    def test_absorption_matches_full_chain(self, n, k, bc, r):
        transition = full_matrix(n, k, bc, r)[:-1, :-1]
        full = full_transition_matrix(n, r)
        nonfailed_idx = [index(mask, n) for mask in nonfailed_masks(n, k, bc)]
        v_full = np.zeros(1 << n)
        v_full[nonfailed_idx[0]] = 1.0
        v_cons = np.zeros(transition.shape[0])
        v_cons[0] = 1.0
        for _ in range(20):
            v_full = v_full @ full
            v_cons = v_cons @ transition
            absorbed_full = 1.0 - v_full[nonfailed_idx].sum()
            absorbed_cons = 1.0 - v_cons.sum()
            assert abs(absorbed_full - absorbed_cons) < 1e-12


def test_chain_csv_layout():
    lines = dump(2, 2, BC3, 0.5).strip().splitlines()
    assert lines[0] == "state,11,absorbed"
    assert lines[1].startswith("11,0.25,0.75")
    assert lines[2] == "absorbed,0,1"


def per_entry_dump(n, k, bc, r):
    rows = labels(nonfailed_masks(n, k, bc), n) + ["absorbed"]
    expected = ["state," + ",".join(rows)]
    for label, row in zip(rows, full_matrix(n, k, bc, r)):
        expected.append(label + "," + ",".join(f"{v:.12g}" for v in row))
    return "\n".join(expected) + "\n"


@pytest.mark.parametrize("bc", [BC1, BC2, BC3])
def test_chain_csv_matches_per_entry_format(bc):
    assert dump(8, 2, bc, 0.7) == per_entry_dump(8, 2, bc, 0.7)


def test_chain_csv_rows_keep_their_labels_across_blocks():
    # n=12 k=5 BC3: 1 130 states, two row blocks
    assert dump(12, 5, BC3, 0.7) == per_entry_dump(12, 5, BC3, 0.7)


def test_chain_csv_bytes_are_pinned():
    # SHA-256 of the dump as the dense N x N writer made it
    digest = hashlib.sha256(dump(10, 3, BC2, 0.95).encode()).hexdigest()
    assert digest == "463f313ecf2ae2e9a6abd08c758a2a2e3b0ec2504f9f58d847e3c70e91f45ae6"


def test_chain_csv_holds_no_square_array():
    # n=12 k=2 BC2: 3 471 states, an N x N float64 matrix of 96 MB
    masks, blocks = build_consolidated(SystemConfig(12, 2, 0.8, BC2))
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as fh:
            chain_csv(fh, 12, masks, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < masks.size**2 * 8 // 2
