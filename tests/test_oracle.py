import pytest

from hooklab import (
    count_first_column_k_hooks,
    count_fixed_hooks,
    count_generalized_mex,
    count_h_fixed_by_hook,
    count_h_fixed_by_part,
    count_mex_class,
    count_mex_class_multi,
    count_ones_exact,
    count_ones_shifted,
    count_ones_statistics,
    count_part_multiplicity_class,
    count_parts_eq_mult,
    partition_numbers,
)
from hooklab.oracle import partition_counts, partitions_of


class TestFixedHookCounts:
    def test_f_values(self):
        table = count_fixed_hooks(0, 9)
        assert [table[n] for n in range(1, 6)] == [1, 0, 1, 2, 3]
        assert table[9] == 12
        assert table[0] == 0

    def test_parts_eq_mult_totals(self):
        table = count_parts_eq_mult(9)
        assert table[9] == 12
        assert table[5] == 3
        assert table[2] == 0

    def test_parts_eq_mult_split_at_nine(self):
        # twelve occurrences split as seven (i=1), four (i=2), one (i=3)
        split = [count_part_multiplicity_class(i, 9)[9] for i in (1, 2, 3)]
        assert split == [7, 4, 1]
        assert sum(split) == count_parts_eq_mult(9)[9]

    def test_by_part(self):
        assert count_h_fixed_by_part(0, 1, 4)[4] == 1  # only (2,1,1)

    def test_by_hook(self):
        # at n=5 only (4,1) has its -1-fixed hook of size 1; the -1-fixed
        # hook of (2,1,1,1) has size 2
        assert count_h_fixed_by_hook(-1, 1, 5)[5] == 1
        assert count_h_fixed_by_hook(-1, 2, 5)[5] == 1
        assert count_fixed_hooks(-1, 5)[5] == 2

    def test_by_part_sums_to_fixed_hooks(self):
        for h in (-2, 0, 1):
            total_table = count_fixed_hooks(h, 12)
            for n in range(13):
                split = sum(count_h_fixed_by_part(h, k, n)[n] for k in range(1, n + 1))
                assert split == total_table[n]

    def test_first_column_hooks(self):
        table = count_first_column_k_hooks(1, 8)
        p = partition_numbers(8)
        assert table[5] == 5
        assert table[1] == 1
        assert all(table[n] == p[n - 1] for n in range(1, 9))


class TestMexCounts:
    def test_M1(self):
        table = count_mex_class(1, 6)
        assert table[5] == 2  # (5), (3,2)
        assert table[1] == 0
        assert table[0] == 0

    def test_multi_matches_single(self):
        multi = count_mex_class_multi((1, 2, 3), 15)
        for k in (1, 2, 3):
            single = count_mex_class(k, 15)
            assert multi[k].values == single.values

    def test_generalized_reduces_to_M_at_minus_one(self):
        for k in (1, 2, 3):
            a = count_generalized_mex(-1, k, 18)
            b = count_mex_class(k, 18)
            assert a.values == b.values

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            count_mex_class(0, 5)


class TestOnesCounts:
    def test_exact_examples(self):
        assert count_ones_exact(0, 4)[4] == 1  # only (3,1)
        # raw count at n=0, h=-1 is 1 (the empty partition): the stated
        # exception, where there is no -1-fixed hook
        assert count_ones_exact(-1, 3)[0] == 1
        assert count_h_fixed_by_part(-1, 1, 3)[0] == 0

    def test_exact_rejects_small_h(self):
        with pytest.raises(ValueError):
            count_ones_exact(-2, 5)

    def test_shifted_agrees_with_exact_at_zero(self):
        a = count_ones_exact(0, 20)
        b = count_ones_shifted(0, 20)
        assert a.values == b.values

    def test_shifted_matches_hook_counts(self):
        for h in range(-3, 3):
            hooks = count_h_fixed_by_part(h, 1, 15)
            shifted = count_ones_shifted(h, 15)
            assert hooks.values == shifted.values

    def test_combined_statistics(self):
        exact, shifted = count_ones_statistics(0, 6)
        assert exact is not None and exact.values == shifted.values
        exact, shifted = count_ones_statistics(-2, 6)
        assert exact is None and shifted[3] == 1


class TestSerialization:
    def test_csv(self):
        table = count_fixed_hooks(0, 9)
        text = table.to_csv()
        assert text.startswith("n,count\n")
        assert text.rstrip().endswith("9,12")

    def test_json(self):
        data = count_mex_class(2, 5).to_json_dict()
        assert data["statistic"] == "mex-class"
        assert data["params"] == {"k": 2}
        assert data["values"]["5"] == count_mex_class(2, 5)[5]

    def test_bfile(self):
        table = count_fixed_hooks(0, 5)
        assert table.to_bfile(start=1).splitlines()[0] == "1 1"
        assert table.to_bfile(start=0).splitlines()[0] == "0 0"


class TestGeneratorGate:
    def test_counts_match_pentagonal_recurrence(self):
        table = partition_counts(20)
        p = partition_numbers(20)
        assert [table[n] for n in range(21)] == p

    @pytest.mark.parametrize("call", [
        lambda: partitions_of(201),
        lambda: count_fixed_hooks(0, 201),
        lambda: count_mex_class_multi((1, 2), 201),
        # visits partitions of n - h, so the bound is crossed at n_max = 191
        lambda: count_ones_shifted(-10, 191),
    ])
    def test_enumeration_bound(self, call):
        with pytest.raises(ValueError, match="enumeration bound 200"):
            call()
