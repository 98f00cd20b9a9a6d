import pytest
from itertools import product
from math import comb

from qeslattice.fock import at_most, enumerate_basis, exactly, translate


def test_exactly_two_quanta_two_sites():
    basis = enumerate_basis(2, exactly(2))
    assert basis.states == ((2, 0), (1, 1), (0, 2))
    assert basis.size == 3


def test_at_most_two_three_sites_size():
    basis = enumerate_basis(3, at_most(2))
    assert basis.size == 10  # (f+1)(f+2)/2


def test_single_site_sector():
    basis = enumerate_basis(1, exactly(2))
    assert basis.states == ((2,),)


def test_enumeration_is_deterministic():
    a = enumerate_basis(4, at_most(2))
    b = enumerate_basis(4, at_most(2))
    assert a.states == b.states
    assert a.index == b.index


def test_rejects_zero_sites():
    with pytest.raises(ValueError):
        enumerate_basis(0, exactly(1))


def test_selector_validation():
    assert exactly(2) == range(2, 3) and at_most(2) == range(3)
    assert enumerate_basis(2, at_most(2)).sectors == range(3)
    for selector in (exactly, at_most):
        with pytest.raises(ValueError):
            selector(-1)


def test_ordering_total_ascending_then_lex_descending():
    basis = enumerate_basis(2, at_most(2))
    assert basis.states == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    totals = [sum(s) for s in basis.states]
    assert totals == sorted(totals)


def test_state_index_examples():
    b2 = enumerate_basis(2, exactly(2))
    assert b2.index[(1, 1)] == 1
    assert (3, 0) not in b2.index
    b3 = enumerate_basis(3, at_most(2))
    assert b3.index[(0, 0, 0)] == 0


def test_translate_examples():
    assert translate((1, 0, 0)) == (0, 1, 0)
    assert translate((2,)) == (2,)
    assert translate((1, 0, 1, 0)) == (0, 1, 0, 1)


@pytest.mark.parametrize("f", range(1, 9))
@pytest.mark.parametrize("n", range(0, 5))
def test_sector_sizes_are_binomial(f, n):
    basis = enumerate_basis(f, exactly(n))
    assert basis.size == comb(n + f - 1, f - 1)


@pytest.mark.parametrize("f", range(1, 9))
@pytest.mark.parametrize("n", range(0, 5))
def test_translate_is_a_bijection_on_each_sector(f, n):
    basis = enumerate_basis(f, exactly(n))
    image = {translate(s) for s in basis.states}
    assert image == set(basis.states)


@pytest.mark.parametrize("f", range(1, 9))
def test_translate_f_times_is_identity(f):
    basis = enumerate_basis(f, at_most(4))
    for s in basis.states:
        v = s
        for _ in range(f):
            v = translate(v)
        assert v == s


@pytest.mark.parametrize("f", range(1, 7))
def test_sector_indices_partition_at_most_basis(f):
    basis = enumerate_basis(f, at_most(3))
    seen = []
    for n in range(4):
        idx = basis.sector_indices(n)
        assert all(sum(basis.states[i]) == n for i in idx)
        seen.extend(idx)
    assert seen == list(range(basis.size))
    assert len(basis.sector_indices(4)) == 0


@pytest.mark.parametrize("f", range(1, 7))
@pytest.mark.parametrize("n", range(0, 5))
def test_sector_order_matches_sorted_reference(f, n):
    # independent reference: every f-tuple of 0..n with sum n, descending
    reference = sorted((t for t in product(range(n + 1), repeat=f) if sum(t) == n),
                       reverse=True)
    assert list(enumerate_basis(f, exactly(n)).states) == reference
    below = [s for m in range(n) for s in enumerate_basis(f, exactly(m)).states]
    assert list(enumerate_basis(f, at_most(n)).states) == below + reference
