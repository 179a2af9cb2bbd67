"""Unit tests for the columnar table storage and key indexes."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import EngineError
from repro.engine import Catalog, Table, table_from_rows


class TestTable:
    def test_basic_construction(self):
        table = Table("t", {"a": np.array([1, 2, 3]), "b": np.array([1.0, 2.0, 3.0])})
        assert len(table) == 3
        assert table.column_names == ("a", "b")
        assert table.column("a").tolist() == [1, 2, 3]

    def test_ragged_columns_rejected(self):
        with pytest.raises(EngineError):
            Table("t", {"a": np.array([1]), "b": np.array([1, 2])})

    def test_empty_columns_rejected(self):
        with pytest.raises(EngineError):
            Table("t", {})

    def test_unknown_column(self):
        table = Table("t", {"a": np.array([1])})
        assert table.has_column("a")
        assert not table.has_column("b")
        with pytest.raises(EngineError):
            table.column("b")

    def test_head(self):
        table = Table("t", {"a": np.array([1, 2, 3])})
        assert table.head(2) == [{"a": 1}, {"a": 2}]


class TestTableFromRows:
    def test_type_inference(self):
        table = table_from_rows(
            "t",
            [
                {"i": 1, "f": 1.5, "s": "x"},
                {"i": 2, "f": 2.5, "s": "y"},
            ],
        )
        assert table.column("i").dtype == np.int64
        assert table.column("f").dtype == np.float64
        assert table.column("s").dtype == object

    def test_ragged_rows_rejected(self):
        with pytest.raises(EngineError):
            table_from_rows("t", [{"a": 1}, {"b": 2}])

    def test_empty_rejected(self):
        with pytest.raises(EngineError):
            table_from_rows("t", [])


class TestKeyIndex:
    def test_dense_key_detected(self):
        table = Table("t", {"key": np.arange(5, dtype=np.int64)})
        index = table.key_index("key")
        assert index.is_dense
        assert index.positions_of(np.array([3, 0, 4])).tolist() == [3, 0, 4]

    def test_dense_with_base_offset(self):
        table = Table("t", {"key": np.arange(10, 15, dtype=np.int64)})
        index = table.key_index("key")
        assert index.is_dense
        assert index.positions_of(np.array([12, 10])).tolist() == [2, 0]

    def test_dense_out_of_range_rejected(self):
        table = Table("t", {"key": np.arange(3, dtype=np.int64)})
        with pytest.raises(EngineError):
            table.key_index("key").positions_of(np.array([5]))

    def test_hash_index_for_strings(self):
        table = Table("t", {"key": np.array(["x", "y", "z"], dtype=object)})
        index = table.key_index("key")
        assert not index.is_dense
        assert index.positions_of(np.array(["z", "x"], dtype=object)).tolist() == [2, 0]

    def test_hash_index_unknown_key(self):
        table = Table("t", {"key": np.array(["x"], dtype=object)})
        with pytest.raises(EngineError):
            table.key_index("key").positions_of(np.array(["q"], dtype=object))

    def test_duplicate_keys_rejected(self):
        table = Table("t", {"key": np.array(["x", "x"], dtype=object)})
        with pytest.raises(EngineError):
            table.key_index("key")

    def test_index_cached(self):
        table = Table("t", {"key": np.arange(3, dtype=np.int64)})
        assert table.key_index("key") is table.key_index("key")


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        table = Table("t", {"a": np.array([1])})
        catalog.register(table)
        assert catalog.table("t") is table
        assert catalog.has_table("t")
        assert catalog.table_names() == ("t",)
        assert len(catalog) == 1

    def test_duplicate_registration(self):
        catalog = Catalog()
        catalog.register(Table("t", {"a": np.array([1])}))
        with pytest.raises(EngineError):
            catalog.register(Table("t", {"a": np.array([2])}))
        catalog.register(Table("t", {"a": np.array([2])}), replace=True)
        assert catalog.table("t").column("a").tolist() == [2]

    def test_drop(self):
        catalog = Catalog()
        catalog.register(Table("t", {"a": np.array([1])}))
        catalog.drop("t")
        assert not catalog.has_table("t")
        with pytest.raises(EngineError):
            catalog.drop("t")

    def test_unknown_table(self):
        with pytest.raises(EngineError):
            Catalog().table("missing")


class TestTableLifetime:
    """A replaced table is freed by reference counting alone: nothing in
    it closes a cycle, so it never waits for the cyclic collector."""

    def test_replaced_fact_table_dies_at_once(self):
        from repro import AssessSession
        from repro.datagen import sales_engine

        enabled = gc.isenabled()
        gc.disable()
        try:
            engine = sales_engine(n_rows=500)
            session = AssessSession(engine)
            statement = "with SALES by month assess storeSales labels quartiles"
            before = session.assess(statement)
            name = engine.cube("SALES").star.fact_table
            old = engine.catalog.table(name)
            assert set(old.columns) == set(old.column_names)
            columns = {column: old.columns[column] for column in old.column_names}
            dead = weakref.ref(old)
            del old
            engine.catalog.register(Table(name, columns), replace=True)
            assert dead() is None
            assert session.assess(statement).cells() == before.cells()
        finally:
            if enabled:
                gc.enable()
