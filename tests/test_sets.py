import pytest
from hypothesis import given, strategies as st

from approxsub.functions import AdditiveFunction
from approxsub.sets import Subset


def test_encode_empty():
    s = Subset.from_elements([], 4)
    assert s.mask == 0 and s.size == 0


def test_encode_duplicates_and_order():
    s = Subset.from_elements([2, 0, 2], 4)
    assert s.mask == 0b0101
    assert s.size == 2


def test_encode_full_set():
    s = Subset.from_elements(list(range(14)), 14)
    assert s == Subset.full(14)
    assert s.size == 14


def test_encode_out_of_range():
    with pytest.raises(ValueError):
        Subset.from_elements([4], 4)
    with pytest.raises(ValueError):
        Subset.from_elements([-1], 4)


@given(st.lists(st.integers(0, 9), max_size=30), st.permutations(range(3)))
def test_encode_order_and_multiplicity_invariant(elements, _perm):
    a = Subset.from_elements(elements, 10)
    b = Subset.from_elements(list(reversed(elements)) + elements, 10)
    assert a == b
    assert a.size == len(set(elements))


def test_ground_set_validation():
    with pytest.raises(ValueError):
        Subset(0)
    with pytest.raises(ValueError):
        Subset.from_elements([], 0)


def test_subset_ops():
    s = Subset.from_elements([0, 3, 5], 8)
    t = Subset.from_elements([3, 4], 8)
    assert s.union(t).elements() == [0, 3, 4, 5]
    assert s.intersection(t).elements() == [3]
    assert s.intersection(t.complement()).elements() == [0, 5]
    assert s.complement().elements() == [1, 2, 4, 6, 7]
    assert s.intersection(t).size == 1
    assert 3 in s and 1 not in s
    assert len(s) == 3
    assert s.add(0) is s
    assert s.remove(7) is s
    assert s.add(1).size == 4 and s.size == 3


def test_subset_ground_mismatch():
    with pytest.raises(ValueError):
        Subset.from_elements([0], 4).union(Subset.from_elements([0], 5))


def test_query_counts_and_values():
    f = AdditiveFunction([1, 2, 3])
    s = Subset.from_elements([0, 2], 3)
    assert f.query_count == 0
    assert f.query(s) == 4
    assert f.query_count == 1
    assert f.query(s) == 4
    assert f.query_count == 2


def test_query_empty_is_zero():
    f = AdditiveFunction([5, 7])
    assert f.query(Subset.empty(2)) == 0


def test_query_ground_mismatch():
    f = AdditiveFunction([1, 2, 3])
    with pytest.raises(ValueError):
        f.query(Subset.empty(4))


def test_query_counter_is_exact_over_sequences():
    f = AdditiveFunction(list(range(6)))
    for q in range(50):
        f.query(Subset(6, q % 64))
    assert f.query_count == 50


def test_wide_ground_sets():
    n = 1 << 16
    s = Subset.from_elements([0, 1000, n - 1], n)
    assert s.size == 3
    assert s.complement().size == n - 3


def test_query_count_serial():
    f = AdditiveFunction([1] * 8)
    full, empty = Subset.full(8), Subset.empty(8)
    assert f.query_count == 0
    for i in range(1, 6):
        f.query(full)
        assert f.query_count == i
    # A solver's share is query_count - start, taken mid-run.
    start = f.query_count
    for i in range(37):
        f.query(full if i % 2 else empty)
    assert f.query_count - start == 37
    assert f.query_count == 42
    # value() is the uncounted path, and a rejected query is not counted.
    f.value(full)
    with pytest.raises(ValueError):
        f.query(Subset.full(7))
    assert f.query_count == 42
