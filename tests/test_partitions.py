from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from hooklab import Partition, generate_partitions, partition_numbers
from hooklab.partitions import MAX_ENUMERATION_WEIGHT, iter_partition_tuples

from conftest import P


partitions_st = st.lists(st.integers(1, 12), max_size=10).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


class TestPartitionConstruction:
    def test_basic(self):
        p = Partition((2, 2, 1))
        assert p.n == 5 and p.t == 3
        assert Partition([2, 2, 1]).parts == (2, 2, 1)

    def test_empty(self):
        p = Partition(())
        assert p.n == 0 and p.t == 0
        assert Partition() == p

    def test_order_violation_names_index(self):
        with pytest.raises(ValueError, match="part 1"):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="part 2"):
            Partition((3, 0))
        with pytest.raises(ValueError):
            Partition((3, -1))

    def test_immutable_and_hashable(self):
        p = P(3, 1)
        with pytest.raises(FrozenInstanceError):
            p.parts = (4,)
        with pytest.raises(FrozenInstanceError):
            p.extra = 1
        with pytest.raises(FrozenInstanceError):
            del p.parts
        assert not hasattr(p, "__dict__")
        assert hash(p) == hash(P(3, 1))

    def test_trusted_matches_validated(self):
        # _trusted skips the checks but must build the same value
        for n in range(13):
            for parts in iter_partition_tuples(n):
                trusted, checked = Partition._trusted(parts), Partition(parts)
                assert trusted == checked, parts
                assert hash(trusted) == hash(checked), parts
                assert repr(trusted) == repr(checked), parts


class TestConjugate:
    def test_examples(self):
        assert P(2, 2, 1).conjugate() == P(3, 2)
        assert P().conjugate() == P()
        assert P(5).conjugate() == P(1, 1, 1, 1, 1)

    def test_involution_exhaustive(self):
        for n in range(21):
            for lam in generate_partitions(n):
                assert lam.conjugate().conjugate() == lam

    @given(partitions_st)
    def test_involution_property(self, lam):
        assert lam.conjugate().conjugate() == lam


class TestHookLengths:
    def test_corner_values(self):
        p = P(2, 2, 1)
        assert p.hook_length(1, 1) == 4
        assert p.hook_length(3, 1) == 1
        # the hook formula is authoritative here: 2 + 3 - 2 - 1 + 1 = 3
        assert p.hook_length(2, 1) == 3

    def test_out_of_diagram(self):
        with pytest.raises(ValueError, match="not in the Young diagram"):
            P(2, 2, 1).hook_length(1, 3)
        with pytest.raises(ValueError):
            P(2, 2, 1).hook_length(4, 1)

    def test_first_column_hooks(self):
        assert P(2, 2, 1).first_column_hooks() == (4, 3, 1)
        assert P(7, 1, 1).first_column_hooks() == (9, 2, 1)
        assert P().first_column_hooks() == ()

    def test_first_column_matches_hook_length(self):
        for n in range(15):
            for lam in generate_partitions(n):
                hooks = lam.first_column_hooks()
                assert all(
                    hooks[s - 1] == lam.hook_length(s, 1) for s in range(1, lam.t + 1)
                )
                assert all(hooks[j] > hooks[j + 1] for j in range(len(hooks) - 1))

    def test_corner_hook_formula(self):
        for n in range(1, 15):
            for lam in generate_partitions(n):
                assert lam.hook_length(1, 1) == lam.parts[0] + lam.t - 1

    def test_beta_number_reconstruction(self):
        for n in range(16):
            for lam in generate_partitions(n):
                hooks = lam.first_column_hooks()
                t = lam.t
                rebuilt = tuple(hooks[s - 1] - (t - s) for s in range(1, t + 1))
                assert rebuilt == lam.parts


class TestFixedHooks:
    def test_examples(self):
        p = P(2, 2, 1)
        r = p.find_h_fixed_hook(3)
        assert (r.position, r.hook, r.part) == (1, 4, 2)
        r = p.find_h_fixed_hook(-2)
        assert (r.position, r.hook, r.part) == (3, 1, 1)
        assert p.find_h_fixed_hook(0) is None
        r = P(3, 2).find_h_fixed_hook(0)
        assert (r.position, r.hook, r.part) == (2, 2, 2)

    def test_report_invariants(self):
        for n in range(15):
            for lam in generate_partitions(n):
                for h in range(-6, 6):
                    r = lam.find_h_fixed_hook(h)
                    if r is not None:
                        assert r.hook == r.part + lam.t - r.position
                        assert r.hook == r.position + h
                        assert 1 <= r.position <= lam.t

    def test_block_shape(self):
        # hook = p + t - s = s + h gives t = 2s + h - p, and the m = t - s rows
        # below row s number at least 0, so s >= p - h. At h = 0 (p = i, k =
        # s - i + 1) this is t = i + 2k - 2 with k >= 1, which B^-1 relies on
        # without a check; it is also the (s, p) block that the oracle's
        # fixed-hook census walks
        for n in range(23):
            for lam in generate_partitions(n):
                for h in range(-4, 5):
                    r = lam.find_h_fixed_hook(h)
                    if r is not None:
                        assert lam.t == 2 * r.position + h - r.part
                        assert r.position >= r.part - h

    def test_uniqueness(self):
        for n in range(15):
            for lam in generate_partitions(n):
                hooks = lam.first_column_hooks()
                offsets = [hooks[s - 1] - s for s in range(1, lam.t + 1)]
                assert len(offsets) == len(set(offsets))

    def test_fixed_points(self):
        assert P(2, 2, 1).find_h_fixed_point(0) == 2
        assert P(3, 1).find_h_fixed_point(0) is None
        assert P(3, 1).find_h_fixed_point(2) == 1
        # parts[i] - i stays above h to the last part
        assert P(5).find_h_fixed_point(-3) is None


class TestMexAndMultiplicity:
    def test_mex_examples(self):
        assert P(12, 7, 6, 6, 5, 5, 3, 2, 1, 1).mex() == 4
        assert P().mex() == 1
        assert P(2, 2).mex() == 1

    def test_mex_bound(self):
        for n in range(15):
            for lam in generate_partitions(n):
                assert lam.mex() <= lam.t + 1

    @given(partitions_st)
    def test_mex_definition(self, lam):
        m = lam.mex()
        assert m not in lam.parts
        assert all(j in lam.parts for j in range(1, m))

    def test_multiplicity(self):
        assert P(3, 2, 2, 1).multiplicity(2) == 2
        assert P(3, 2, 2, 1).multiplicity(1) == 1
        assert P(5).multiplicity(3) == 0
        with pytest.raises(ValueError, match="part size must be positive, got 0"):
            P(5).multiplicity(0)

    def test_parts_equal_to_multiplicity(self):
        assert P(3, 2, 2, 1).parts_equal_to_multiplicity() == {1, 2}
        assert P(2, 2, 1).parts_equal_to_multiplicity() == {1, 2}
        assert P(4).parts_equal_to_multiplicity() == frozenset()


class TestGeneration:
    def test_n4_listing(self):
        got = [p.parts for p in generate_partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_zero(self):
        assert [p.parts for p in generate_partitions(0)] == [()]

    def test_counts_match_recurrence(self):
        p = partition_numbers(25)
        for n in range(26):
            assert sum(1 for _ in generate_partitions(n)) == p[n]

    def test_descending_lexicographic(self):
        for n in range(1, 14):
            seq = list(iter_partition_tuples(n))
            assert seq == sorted(seq, reverse=True)
            assert len(set(seq)) == len(seq)

    def test_enumeration_bound(self):
        with pytest.raises(ValueError, match="exceeds the enumeration bound"):
            next(iter(generate_partitions(MAX_ENUMERATION_WEIGHT + 1)))
        with pytest.raises(ValueError):
            generate_partitions(-1)
