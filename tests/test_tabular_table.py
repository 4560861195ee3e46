"""Tests for repro.tabular.table."""

import numpy as np
import pytest

from repro.tabular.schema import ColumnKind, TableSchema
from repro.tabular.table import CategoricalColumn, Table


@pytest.fixture()
def schema():
    return TableSchema.from_columns(numerical=["a", "b"], categorical=["c"])


@pytest.fixture()
def table(schema):
    return Table(
        {"a": [1.0, 2.0, 3.0, 4.0], "b": [0.1, 0.2, 0.3, 0.4], "c": ["x", "y", "x", "z"]},
        schema,
    )


class TestConstruction:
    def test_shape(self, table):
        assert table.shape == (4, 3)
        assert len(table) == 4

    def test_missing_column_rejected(self, schema):
        with pytest.raises(ValueError, match="do not match"):
            Table({"a": [1.0], "b": [2.0]}, schema)

    def test_extra_column_rejected(self, schema):
        with pytest.raises(ValueError):
            Table({"a": [1.0], "b": [2.0], "c": ["x"], "d": [1.0]}, schema)

    def test_ragged_columns_rejected(self, schema):
        with pytest.raises(ValueError, match="rows"):
            Table({"a": [1.0, 2.0], "b": [1.0], "c": ["x", "y"]}, schema)

    def test_numerical_cast_to_float(self, table):
        assert table["a"].dtype == np.float64

    def test_categorical_cast_to_str(self, schema):
        t = Table({"a": [1.0], "b": [1.0], "c": [5]}, schema)
        assert t["c"][0] == "5"

    def test_2d_column_rejected(self, schema):
        with pytest.raises(ValueError):
            Table({"a": np.ones((2, 2)), "b": [1.0, 2.0], "c": ["x", "y"]}, schema)

    def test_from_records(self, schema):
        records = [{"a": 1.0, "b": 2.0, "c": "x"}, {"a": 3.0, "b": 4.0, "c": "y"}]
        t = Table.from_records(records, schema)
        assert len(t) == 2
        assert t.row(1)["c"] == "y"

    def test_empty_table(self, schema):
        t = Table.empty(schema)
        assert len(t) == 0
        assert t.columns == ["a", "b", "c"]

    def test_unknown_column_lookup(self, table):
        with pytest.raises(KeyError):
            table["zzz"]


class TestSelection:
    def test_select_preserves_order(self, table):
        sub = table.select(["c", "a"])
        assert sub.columns == ["c", "a"]

    def test_drop(self, table):
        assert table.drop(["b"]).columns == ["a", "c"]

    def test_take(self, table):
        sub = table.take([2, 0])
        assert sub["a"].tolist() == [3.0, 1.0]

    def test_mask(self, table):
        sub = table.mask(np.array([True, False, True, False]))
        assert len(sub) == 2

    def test_mask_wrong_length(self, table):
        with pytest.raises(ValueError):
            table.mask([True, False])

    def test_head(self, table):
        assert len(table.head(2)) == 2
        assert len(table.head(100)) == 4

    def test_with_column_adds(self, table):
        extended = table.with_column("d", [9.0, 8.0, 7.0, 6.0], ColumnKind.NUMERICAL)
        assert "d" in extended.columns
        assert len(extended.schema) == 4

    def test_with_column_replaces(self, table):
        replaced = table.with_column("a", [0.0, 0.0, 0.0, 0.0], "numerical")
        assert replaced["a"].sum() == 0.0
        assert len(replaced.schema) == 3


class TestSamplingAndCombination:
    def test_sample_without_replacement(self, table):
        sub = table.sample(3, seed=0)
        assert len(sub) == 3

    def test_sample_too_many_raises(self, table):
        with pytest.raises(ValueError):
            table.sample(10, replace=False)

    def test_sample_with_replacement(self, table):
        assert len(table.sample(10, replace=True, seed=0)) == 10

    def test_sample_deterministic(self, table):
        a = table.sample(2, seed=3)["a"]
        b = table.sample(2, seed=3)["a"]
        np.testing.assert_array_equal(a, b)

    def test_shuffle_preserves_multiset(self, table):
        shuffled = table.shuffle(seed=1)
        assert sorted(shuffled["a"].tolist()) == sorted(table["a"].tolist())

    def test_concat(self, table):
        combined = Table.concat([table, table])
        assert len(combined) == 8

    def test_concat_schema_mismatch(self, table):
        other = table.drop(["b"])
        with pytest.raises(ValueError):
            Table.concat([table, other])

    def test_concat_empty_list(self):
        with pytest.raises(ValueError):
            Table.concat([])

    def test_equality(self, table):
        assert table == table.take([0, 1, 2, 3])
        assert table != table.take([1, 0, 2, 3])


class TestMatricesAndSummaries:
    def test_numerical_matrix_shape(self, table):
        assert table.numerical_matrix().shape == (4, 2)

    def test_numerical_matrix_rejects_categorical(self, table):
        with pytest.raises(ValueError):
            table.numerical_matrix(["c"])

    def test_categorical_matrix(self, table):
        assert table.categorical_matrix().shape == (4, 1)

    def test_codes_matrix(self, table):
        codes = table.codes_matrix()
        assert codes.shape == (4, 1)
        assert codes.dtype == np.int32
        # Codes index the column's vocab and decode to the original strings.
        vocab = table.vocab("c")
        assert [vocab[i] for i in codes[:, 0]] == ["x", "y", "x", "z"]

    def test_codes_matrix_rejects_numerical(self, table):
        with pytest.raises(ValueError):
            table.codes_matrix(["a"])

    def test_codes_matrix_empty_selection(self, table):
        empty = table.codes_matrix([])
        assert empty.shape == (4, 0)
        assert empty.dtype == np.int32

    def test_categorical_accessors(self, table):
        column = table.categorical_column("c")
        np.testing.assert_array_equal(column.codes, table.codes("c"))
        assert column.vocab == table.vocab("c")
        np.testing.assert_array_equal(column.decode(), table["c"])
        with pytest.raises(ValueError):
            table.categorical_column("a")

    def test_value_counts_sorted(self, table):
        counts = table.value_counts("c")
        assert list(counts)[0] == "x"
        assert counts["x"] == 2

    def test_value_counts_normalized(self, table):
        freqs = table.value_counts("c", normalize=True)
        assert abs(sum(freqs.values()) - 1.0) < 1e-12

    def test_value_counts_types(self, table):
        # Raw counts are true ints, frequencies true floats — the annotation
        # promised Dict[str, float] for both, which was wrong for counts.
        counts = table.value_counts("c")
        assert all(type(v) is int for v in counts.values())
        assert counts == {"x": 2, "y": 1, "z": 1}
        freqs = table.value_counts("c", normalize=True)
        assert all(type(v) is float for v in freqs.values())

    def test_value_counts_on_numeric_raises(self, table):
        with pytest.raises(ValueError):
            table.value_counts("a")

    def test_nunique(self, table):
        assert table.nunique("c") == 3

    def test_describe_numeric(self, table):
        stats = table.describe_numeric("a")
        assert stats["min"] == 1.0 and stats["max"] == 4.0
        assert stats["median"] == pytest.approx(2.5)

    def test_describe_numeric_on_categorical_raises(self, table):
        with pytest.raises(ValueError):
            table.describe_numeric("c")

    def test_profile(self, table):
        profile = {row["name"]: row for row in table.profile()}
        assert profile["c"]["n_unique"] == 3
        assert profile["a"]["kind"] == "numerical"

    def test_row_out_of_range(self, table):
        with pytest.raises(IndexError):
            table.row(10)

    def test_to_records_roundtrip(self, table):
        records = table.to_records()
        rebuilt = Table.from_records(records, table.schema)
        assert rebuilt == table


class TestFromCodes:
    """``from_codes(codes, labels)`` builds ``from_values(labels[codes])``."""

    @pytest.mark.parametrize(
        "labels, codes",
        [
            (["b", "a", "c"], [2, 0, 0, 2]),  # unsorted, one label unused
            (["x", "y", "x", "z"], [2, 0, 1, 3]),  # a repeated label merges
            (("only",), [0, 0]),
            (["a", "b"], np.array([], dtype=np.intp)),  # no rows: empty vocabulary
            (np.array(["p", "q"], dtype=object), np.array([1, 1], dtype=np.int8)),
        ],
    )
    def test_matches_from_values(self, labels, codes):
        column = CategoricalColumn.from_codes(codes, labels)
        rows = np.asarray(labels, dtype=str)[np.asarray(codes, dtype=np.intp)]
        expected = CategoricalColumn.from_values(rows)
        assert column.vocab == expected.vocab
        assert column.codes.dtype == np.int32
        np.testing.assert_array_equal(column.codes, expected.codes)
        np.testing.assert_array_equal(column.decode(), expected.decode())

    def test_code_out_of_range_raises(self):
        with pytest.raises(IndexError):
            CategoricalColumn.from_codes([0, 3], ["a", "b"])
