"""Row storage: heaps plus ordered hash indexes.

A :class:`TableStore` owns the rows of one table.  Rows are dicts keyed
by column name, addressed by a monotonically increasing row id.  The
primary key and every unique constraint are enforced with hash indexes;
secondary indexes accelerate equality lookups, and a lazily maintained
sorted view of each index's keys additionally serves prefix, range and
``IN``-list scans for the cost-based planner.
"""

from __future__ import annotations

import bisect

from repro.errors import IntegrityError, SchemaError
from repro.rdb.columnar import ColumnStore
from repro.rdb.schema import Index, TableSchema


class _NullKey:
    """Total-order sentinel standing for NULL inside index keys.

    Indexes store *every* row (a row whose indexed column is NULL must
    still be found by a prefix scan on the other columns), so NULL needs
    a place in the key ordering: before every real value, equal only to
    itself.  Probes are built from real values and therefore never match
    a sentinel-bearing key by accident.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __repr__(self):
        return "NULL"


_NULL = _NullKey()


def _sorted_discard(keys: list, key: tuple) -> None:
    """Remove ``key`` from the ascending list ``keys``."""
    position = bisect.bisect_left(keys, key)
    if position == len(keys) or keys[position] != key:
        raise ValueError("key not in sorted view")
    del keys[position]


class _HashIndex:
    """Equality index mapping a tuple of column values to row ids,
    with an on-demand sorted key list for ordered access paths."""

    def __init__(self, columns: tuple[str, ...], unique: bool):
        self.columns = columns
        self.unique = unique
        self._entries: dict[tuple, set[int]] = {}
        self._sorted: list[tuple] | None = None
        self._sorted_dirty = True

    def key_for(self, row: dict) -> tuple:
        """The index key of ``row``; NULLs become the ordering sentinel."""
        return tuple(
            _NULL if row[c] is None else row[c] for c in self.columns
        )

    def unique_key_for(self, row: dict) -> tuple | None:
        """The key used for uniqueness checks; None when any indexed
        column is NULL (SQL unique constraints ignore NULLs)."""
        key = tuple(row[c] for c in self.columns)
        if any(v is None for v in key):
            return None
        return key

    def would_violate(self, row: dict, ignore_row_id: int | None = None) -> bool:
        if not self.unique:
            return False
        key = self.unique_key_for(row)
        if key is None:
            return False
        holders = self._entries.get(key, set())
        return any(rid != ignore_row_id for rid in holders)

    def add(self, row_id: int, row: dict) -> None:
        key = self.key_for(row)
        holders = self._entries.get(key)
        if holders is None:
            holders = self._entries[key] = set()
            self._sorted_change(key, bisect.insort)
        holders.add(row_id)

    def remove(self, row_id: int, row: dict) -> None:
        key = self.key_for(row)
        holders = self._entries.get(key)
        if holders:
            holders.discard(row_id)
            if not holders:
                del self._entries[key]
                self._sorted_change(key, _sorted_discard)

    def find(self, key: tuple) -> set[int]:
        return self._entries.get(key, set())

    # -- ordered access -----------------------------------------------------

    def sorted_keys(self) -> list[tuple] | None:
        """All index keys in ascending order, built lazily and then kept
        in step with key-set changes.  None when keys are mutually
        incomparable (mixed-type column) — callers then fall back to a
        sequential scan."""
        if self._sorted_dirty:
            try:
                self._sorted = sorted(self._entries)
            except TypeError:
                self._sorted = None
            self._sorted_dirty = False
        return self._sorted

    def _sorted_change(self, key: tuple, change) -> None:
        """Apply one key insertion or removal to a built sorted view;
        anything it cannot place marks the view for a rebuild."""
        if self._sorted_dirty or self._sorted is None:
            self._sorted_dirty = True
            return
        try:
            change(self._sorted, key)
        except (TypeError, ValueError):
            self._sorted_dirty = True

    def scan_prefix(self, prefix: tuple) -> set[int] | None:
        """Row ids whose key starts with ``prefix`` (real values only).
        Full-width prefixes degrade to a hash probe; None means the
        ordered view is unavailable and the caller must scan."""
        if len(prefix) == len(self.columns):
            return set(self.find(prefix))
        keys = self.sorted_keys()
        if keys is None:
            return None
        width = len(prefix)
        try:
            start = bisect.bisect_left(keys, prefix, key=lambda t: t[:width])
        except TypeError:
            return None
        matches: set[int] = set()
        for position in range(start, len(keys)):
            key = keys[position]
            if key[:width] != prefix:
                break
            matches |= self._entries[key]
        return matches

    def scan_range(
        self,
        prefix: tuple,
        low,
        low_inclusive: bool,
        high,
        high_inclusive: bool,
    ) -> set[int] | None:
        """Row ids matching ``prefix`` equality on the leading columns
        plus a (half-)open interval on the next column.  NULLs in the
        range column never qualify (a range predicate is UNKNOWN on
        NULL).  None means fall back to a sequential scan."""
        keys = self.sorted_keys()
        if keys is None:
            return None
        width = len(prefix)
        try:
            if low is not None:
                side = bisect.bisect_left if low_inclusive else bisect.bisect_right
                start = side(keys, prefix + (low,), key=lambda t: t[: width + 1])
            else:
                start = bisect.bisect_left(keys, prefix, key=lambda t: t[:width])
            matches: set[int] = set()
            for position in range(start, len(keys)):
                key = keys[position]
                if key[:width] != prefix:
                    break
                value = key[width]
                if value is _NULL:
                    continue
                if high is not None:
                    past = value >= high if not high_inclusive else value > high
                    if past:
                        break
                matches |= self._entries[key]
            return matches
        except TypeError:
            return None


class TableStore:
    """Rows and indexes of one table.

    Constraint checks that need *other* tables (foreign keys) live in
    :class:`repro.rdb.database.Database`; this class enforces what is
    local: NOT NULL, type coercion, primary-key and unique uniqueness.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.rows: dict[int, dict] = {}
        #: False once a row was re-inserted behind a younger one, so
        #: ``rows`` order is no longer ascending row-id order
        self._rows_in_id_order = True
        self._next_row_id = 1
        self._auto_counter = 0
        #: snapshot written by ANALYZE (see repro.rdb.statistics);
        #: None until the table has been analyzed.
        self.statistics = None
        #: lazily built column-major mirror (repro.rdb.columnar); the
        #: mutators below feed it O(1) sync records once it exists
        self.column_store = ColumnStore(self)
        self._indexes: dict[str, _HashIndex] = {}
        if schema.primary_key:
            self._indexes["#pk"] = _HashIndex(schema.primary_key, unique=True)
        for position, unique_cols in enumerate(schema.unique_constraints):
            self._indexes[f"#unique{position}"] = _HashIndex(unique_cols, unique=True)
        for index in schema.indexes:
            self.add_index(index)

    # -- index management -----------------------------------------------------

    def add_index(self, index: Index) -> None:
        if index.name in self._indexes:
            raise SchemaError(f"duplicate index name {index.name!r}")
        hash_index = _HashIndex(index.columns, index.unique)
        for row_id, row in self.rows.items():
            if hash_index.would_violate(row):
                raise IntegrityError(
                    f"cannot create unique index {index.name!r}: duplicate values"
                )
            hash_index.add(row_id, row)
        self._indexes[index.name] = hash_index

    def index_on(self, columns: tuple[str, ...]) -> _HashIndex | None:
        """An index whose column tuple exactly matches ``columns``."""
        for index in self._indexes.values():
            if index.columns == columns:
                return index
        return None

    def iter_indexes(self) -> list[tuple[str, _HashIndex]]:
        """(name, index) pairs for access-path enumeration."""
        return list(self._indexes.items())

    # -- row lifecycle ---------------------------------------------------------

    def prepare_row(self, values: dict) -> dict:
        """Build a full, type-coerced row from partial column values.

        Applies auto-increment/defaults and checks NOT NULL.  Raises on
        unknown columns so typos surface instead of silently dropping data.
        """
        for name in values:
            if not self.schema.has_column(name):
                raise SchemaError(
                    f"table {self.schema.name!r} has no column {name!r}"
                )
        row: dict = {}
        for column in self.schema.columns:
            value = values.get(column.name)
            if value is None and column.auto_increment:
                self._auto_counter += 1
                value = self._auto_counter
            if value is None and column.default is not None:
                value = column.default
            value = column.sql_type.coerce(value)
            if value is None and not column.nullable:
                raise IntegrityError(
                    f"column {self.schema.name}.{column.name} is NOT NULL"
                )
            row[column.name] = value
        # Keep the auto counter ahead of explicitly supplied ids.
        for column in self.schema.columns:
            if column.auto_increment and isinstance(row[column.name], int):
                self._auto_counter = max(self._auto_counter, row[column.name])
        return row

    def check_unique(self, row: dict, ignore_row_id: int | None = None) -> None:
        for name, index in self._indexes.items():
            if index.would_violate(row, ignore_row_id):
                what = "primary key" if name == "#pk" else "unique constraint"
                raise IntegrityError(
                    f"{what} violation on {self.schema.name}({', '.join(index.columns)})"
                )

    def insert_prepared(self, row: dict) -> int:
        self.check_unique(row)
        row_id = self._next_row_id
        self._next_row_id += 1
        self._append_row(row_id, row)
        for index in self._indexes.values():
            index.add(row_id, row)
        self.column_store.note_insert(row_id, row)
        return row_id

    def _append_row(self, row_id: int, row: dict) -> None:
        if self.rows and row_id < next(reversed(self.rows)):
            self._rows_in_id_order = False
        self.rows[row_id] = row

    def update_row(self, row_id: int, changes: dict) -> dict:
        old = self.rows[row_id]
        new = dict(old)
        for name, value in changes.items():
            column = self.schema.column(name)
            value = column.sql_type.coerce(value)
            if value is None and not column.nullable:
                raise IntegrityError(
                    f"column {self.schema.name}.{name} is NOT NULL"
                )
            new[name] = value
        self.check_unique(new, ignore_row_id=row_id)
        for index in self._indexes.values():
            index.remove(row_id, old)
            index.add(row_id, new)
        self.rows[row_id] = new
        self.column_store.note_update(row_id, new)
        return new

    def delete_row(self, row_id: int) -> dict:
        row = self.rows.pop(row_id)
        for index in self._indexes.values():
            index.remove(row_id, row)
        self.column_store.note_delete(row_id)
        return row

    # -- transaction support (no checks: restoring a prior state) ----------

    def restore_row(self, row_id: int, row: dict) -> None:
        """Re-insert a previously deleted row under its original id."""
        self._append_row(row_id, row)
        for index in self._indexes.values():
            index.add(row_id, row)
        # a re-inserted key appends at the end of the rows dict, which is
        # exactly where the columnar sync puts it
        self.column_store.note_insert(row_id, row)
        self._next_row_id = max(self._next_row_id, row_id + 1)

    # -- durability support (WAL replay and snapshots) ---------------------

    @property
    def auto_counter(self) -> int:
        """The auto-increment high-water mark (snapshot/replay state)."""
        return self._auto_counter

    @property
    def next_row_id(self) -> int:
        return self._next_row_id

    def restore_counters(self, auto_counter: int, next_row_id: int) -> None:
        """Reinstate counters exactly as a snapshot recorded them."""
        self._auto_counter = auto_counter
        self._next_row_id = next_row_id

    def apply_redo_insert(self, row_id: int, row: dict) -> None:
        """Replay a committed insert: the row is known-good, so no
        constraint checks; counters advance past the replayed values."""
        self.restore_row(row_id, row)
        for column in self.schema.columns:
            if column.auto_increment and isinstance(row.get(column.name), int):
                self._auto_counter = max(self._auto_counter, row[column.name])

    def force_row(self, row_id: int, row: dict) -> None:
        """Overwrite a row with an earlier version (undo of an update)."""
        old = self.rows[row_id]
        for index in self._indexes.values():
            index.remove(row_id, old)
            index.add(row_id, row)
        self.rows[row_id] = row
        self.column_store.note_update(row_id, row)

    # -- lookups ------------------------------------------------------------------

    def find_by_key(self, columns: tuple[str, ...], key: tuple) -> list[int]:
        """Row ids whose ``columns`` equal ``key``, in :attr:`rows` order
        (the order a scan visits them), via an index whose key is or
        starts with ``columns`` when one exists, else a scan."""
        index = self.index_on(columns) or self._index_led_by(columns)
        if index is not None:
            row_ids = index.scan_prefix(key)
            if row_ids is not None:
                return self._in_row_order(row_ids)
        matches = []
        for row_id, row in self.rows.items():
            if tuple(row[c] for c in columns) == key:
                matches.append(row_id)
        return matches

    def _index_led_by(self, columns: tuple[str, ...]) -> _HashIndex | None:
        """A composite index whose leading columns are ``columns``."""
        width = len(columns)
        for index in self._indexes.values():
            if index.columns[:width] == columns:
                return index
        return None

    def _in_row_order(self, row_ids) -> list[int]:
        """``row_ids`` in :attr:`rows` order: ascending ids unless a
        rollback restored a row behind a younger one."""
        if self._rows_in_id_order:
            return sorted(row_ids)
        return [row_id for row_id in self.rows if row_id in row_ids]

    def __len__(self) -> int:
        return len(self.rows)
