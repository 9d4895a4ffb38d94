import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ckngb.tiesets as tiesets_mod
from ckngb.chain import build_state_chain
from ckngb.errors import NoTieSets
from ckngb.sntf import pmf_survival_series
from ckngb.system import BalanceCondition, SystemConfig, balanced_masks
from ckngb.tiesets import (
    enumerate_min_tiesets,
    system_reliability_exact,
    system_reliability_product,
    tieset_members,
)
from oracles import bit_matrix_table, is_nonfailed, scan_min_tiesets, structure_function, tieset_table

BC1, BC2, BC3 = BalanceCondition.BC1, BalanceCondition.BC2, BalanceCondition.BC3


def units(mask, n):
    """The units of a mask, ascending: unit i is bit n - i."""
    return tuple(i for i in range(1, n + 1) if mask >> (n - i) & 1)


def members(masks, n):
    return [units(m, n) for m in masks.tolist()]


class TestEnumeration:
    def test_square_k2(self):
        assert members(enumerate_min_tiesets(4, 2, BC3), 4) == [(1, 3), (2, 4)]

    def test_two_units(self):
        assert members(enumerate_min_tiesets(2, 2, BC3), 2) == [(1, 2)]

    def test_k_equals_n(self):
        assert members(enumerate_min_tiesets(4, 4, BC3), 4) == [(1, 2, 3, 4)]

    def test_masks_are_an_int64_array(self):
        masks = enumerate_min_tiesets(6, 3, BC3)
        assert isinstance(masks, np.ndarray) and masks.dtype == np.int64

    def test_deterministic_order(self):
        ties = members(enumerate_min_tiesets(6, 3, BC3), 6)
        sizes = [len(t) for t in ties]
        assert sizes == sorted(sizes)
        for a, b in zip(ties, ties[1:]):
            if len(a) == len(b):
                assert a < b

    @pytest.mark.parametrize("n,k,bc", [(4, 2, BC3), (6, 3, BC3), (9, 3, BC2), (12, 4, BC1)])
    def test_printed_members(self, n, k, bc):
        masks = enumerate_min_tiesets(n, k, bc)
        expected = [",".join(map(str, units)) for units in members(masks, n)]
        assert tieset_members(masks, n) == expected

    def test_no_tiesets_raised(self, monkeypatch, fresh_caches):
        def none_balanced(n, bc):
            return np.zeros(0, dtype=np.int64)

        monkeypatch.setattr(tiesets_mod, "balanced_masks", none_balanced)
        with pytest.raises(NoTieSets):
            enumerate_min_tiesets(4, 2, BC3)


def _oracle_min_tiesets(n, k, bc):
    """Inclusion-minimal balanced subsets by pairwise filtering."""
    table = bit_matrix_table(n, bc)
    candidates = [
        m for m in range(1 << n) if m.bit_count() >= k and table[m]
    ]
    minimal = [
        m
        for m in candidates
        if not any(other != m and (m & other) == other for other in candidates)
    ]
    return sorted(minimal, key=lambda m: (m.bit_count(), units(m, n)))


@pytest.mark.parametrize("bc", [BC1, BC2, BC3])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_completeness_against_pairwise_oracle(n, bc):
    if bc is BC1 and n % 2:
        return
    for k in range(2, n + 1):
        assert enumerate_min_tiesets(n, k, bc).tolist() == _oracle_min_tiesets(n, k, bc)


@pytest.mark.parametrize("n,k,bc", [(6, 3, BC3), (8, 2, BC3), (8, 3, BC1), (9, 3, BC2), (10, 4, BC3)])
def test_minimality(n, k, bc):
    table = bit_matrix_table(n, bc)
    for tie in enumerate_min_tiesets(n, k, bc).tolist():
        for drop in units(tie, n):
            smaller = tie & ~(1 << (n - drop))
            assert smaller.bit_count() < k or not table[smaller]


class TestNonfailed:
    def test_table_rows(self):
        masks = enumerate_min_tiesets(4, 2, BC3)
        assert is_nonfailed(0b1110, masks)
        assert not is_nonfailed(0b1100, masks)
        assert not is_nonfailed(0, masks)

    def test_structure_function_rows(self):
        masks = enumerate_min_tiesets(4, 2, BC3)
        assert structure_function(0b1010, 4, masks) == 1
        assert structure_function(0b1001, 4, masks) == 0
        assert structure_function(0b1111, 4, masks) == 1

    @pytest.mark.parametrize("bc", [BC1, BC2, BC3])
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 9])
    def test_structure_function_equals_membership(self, n, bc):
        if bc is BC1 and n % 2:
            return
        for k in (2, max(2, n // 2), n):
            masks = enumerate_min_tiesets(n, k, bc)
            table = tieset_table(masks, n)
            for mask in range(1 << n):
                observed = structure_function(mask, n, masks)
                assert observed == int(is_nonfailed(mask, masks)) == int(table[mask])


@given(st.integers(2, 10), st.data())
def test_monotone_structure(n, data):
    k = data.draw(st.integers(2, n))
    masks = enumerate_min_tiesets(n, k, BC3)
    inner = data.draw(st.integers(0, (1 << n) - 1))
    extra = data.draw(st.integers(0, (1 << n) - 1))
    outer = inner | extra
    if is_nonfailed(inner, masks):
        assert is_nonfailed(outer, masks)


class TestReliability:
    def test_product_form_examples(self):
        masks = enumerate_min_tiesets(4, 2, BC3)
        assert system_reliability_product(masks, 0.7) == pytest.approx(
            1.0 - (1.0 - 0.49) ** 2, abs=1e-15
        )
        pair = enumerate_min_tiesets(2, 2, BC3)
        assert system_reliability_product(pair, 0.7) == pytest.approx(0.49)
        assert system_reliability_product(pair, 0.1) < system_reliability_product(pair, 0.9)

    def test_exact_enumeration_examples(self):
        assert system_reliability_exact(4, 2, BC3, 0.7) == pytest.approx(0.7399, abs=1e-12)
        assert system_reliability_exact(2, 2, BC3, 0.5) == pytest.approx(0.25)
        assert system_reliability_exact(4, 2, BC3, 1.0 - 1e-12) == pytest.approx(1.0)

    def test_exact_equals_one_shock_survival(self):
        # independent route through the consolidated chain
        for n, k, r in [(4, 2, 0.7), (6, 3, 0.6), (8, 4, 0.85)]:
            config = SystemConfig(n, k, r, BC3)
            assert system_reliability_exact(n, k, BC3, r) == pytest.approx(
                pmf_survival_series(build_state_chain(config), 1)[1][0], abs=1e-12
            )

    @pytest.mark.parametrize("n,k,bc", [(12, 4, BC3), (16, 3, BC2), (16, 4, BC3)])
    def test_exact_equals_state_enumeration(self, n, k, bc):
        # the polynomial of the count profile against a weight sum over
        # every state that contains a tie-set of the subset scan
        pops = np.bitwise_count(np.arange(1 << n))
        table = tieset_table(scan_min_tiesets(n, k, bc), n)
        for r in (0.3, 0.7, 0.95):
            enumerated = (r**pops * (1.0 - r) ** (n - pops))[table].sum()
            assert system_reliability_exact(n, k, bc, r) == pytest.approx(enumerated, rel=1e-14)

    def test_overlapping_tiesets_break_product_form(self):
        # size-4 and size-3 tie-sets share units here, so the independence
        # shortcut deviates from the exact expectation
        exact = system_reliability_exact(6, 3, BC3, 0.7)
        product = system_reliability_product(enumerate_min_tiesets(6, 3, BC3), 0.7)
        assert abs(exact - product) > 1e-3


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_bc3_has_most_tiesets(n):
    for k in range(2, n + 1):
        count3 = len(enumerate_min_tiesets(n, k, BC3))
        assert count3 >= len(enumerate_min_tiesets(n, k, BC1))
        assert count3 >= len(enumerate_min_tiesets(n, k, BC2))


@pytest.mark.parametrize("n", range(2, 17))
def test_closure_planes_nest(n):
    """Word by word, the closure plane of k + 1 lies inside the plane of k,
    and at each k the plane of BC1 inside that of BC2 and the plane of BC2
    inside that of BC3: their balanced sets nest."""
    conditions = (BC2, BC3) if n % 2 else (BC1, BC2, BC3)
    ks = tuple(range(1, n + 1))
    planes = [
        np.concatenate(list(tiesets_mod._planes(n, bc, ks, balanced_masks(n, bc)))) for bc in conditions
    ]
    for rows in planes:
        assert not (rows[1:] & ~rows[:-1]).any()
    for inner, outer in zip(planes, planes[1:]):
        assert not (inner & ~outer).any()


class TestStructureLayerFootprint:
    """The balanced masks are listed, not tabled: the closure plane, one
    bit per mask, is the structure layer's only array over all 2**n
    masks."""

    def test_enumeration_peaks_below_one_byte_per_mask(self, fresh_caches):
        # The closure plane holds 2**24 bits.  The byte rank table it
        # replaced peaked at 1.18 * 2**24 bytes (3.16 * 2**24 as the
        # product of a popcount and a balance table); the plane route
        # peaks at 0.47 * 2**24, mostly the balanced-mask search and the
        # tie-set lookup.
        tracemalloc.start()
        try:
            masks = enumerate_min_tiesets(24, 6, BC3)
            system_reliability_exact(24, 6, BC3, 0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(masks) > 0
        assert peak <= 0.75 * (1 << 24)

    def test_tiesets_load_no_masked_arrays(self):
        # np.unique imports numpy.ma on its first call, which costs every
        # command about a megabyte of resident memory
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys\n"
            "from ckngb.experiments import parse_config, run_tiesets\n"
            "for bc in ('BC2', 'BC3'):\n"
            "    run_tiesets(parse_config({'n': 18, 'k': 4, 'r': 0.8, 'bc': bc}))\n"
            "print('numpy.ma' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
        )
        assert done.stdout.strip() == "False"
