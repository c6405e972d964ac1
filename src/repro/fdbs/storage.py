"""Multi-version heap storage: snapshot reads, latched writes, undo.

Rows are tuples in definition column order.  Every mutation can record
an undo entry into an active :class:`UndoLog`, which the session layer
uses to implement ROLLBACK.  Row identifiers (rids) are stable for the
lifetime of a row; deleted slots are tombstoned.

Concurrency model (MVCC snapshot isolation at statement granularity):

* A table's visible state is an immutable :class:`TableVersion` — a
  reference into an :class:`_Arena` (the physical rows plus its
  primary-key and secondary-index structures) bounded by ``row_limit``.
  Readers pin the table's current version **lock-free** (one attribute
  read) and iterate it without ever blocking, or being blocked by,
  writers.
* Inserts are append-only: they extend the current arena in place and
  publish a successor version whose ``row_limit`` covers the new rid.
  A version pinned earlier keeps its smaller ``row_limit`` and simply
  never sees the appended rows — O(1) per insert, no copying.
* Updates and deletes build a **copy-on-write successor arena** (rids
  preserved, tombstones kept) and publish it; versions pinned against
  the old arena keep reading it untouched.
* All mutations run under the table's **write latch** (a re-entrant
  per-table lock); writers on different tables never contend.  A DML
  statement wraps its mutations in :meth:`Table.write_transaction`,
  which performs first-writer-wins conflict detection: if the pinned
  version is no longer current when the latch is acquired, the
  statement loses with a retryable
  :class:`~repro.errors.WriteConflictError`.
* Publishing a version additionally notifies ``publish_hook`` (set by
  the owning database) so a catalog-level snapshot map can advance
  atomically — the short commit-time visibility critical section.

Single-threaded behaviour — rows, rids, constraint errors and their
ordering — is bit-identical to the pre-MVCC heap.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator, Sequence

from repro.errors import ConstraintError, ExecutionError, WriteConflictError
from repro.fdbs.catalog import ColumnDef
from repro.fdbs.stats import zone_bounds
from repro.fdbs.types import coerce_into


Row = tuple

#: Default number of rids per column chunk (also the batch size of the
#: vectorized executor; configurable per database via ``chunk_size``).
DEFAULT_CHUNK_SIZE = 1024


class ColumnChunk:
    """One chunk of a table's rows with per-column zone maps.

    A chunk covers a fixed rid range ``[start, start + chunk_size)`` of
    one arena; ``rows`` holds only the *live* tuples of that range, in
    rid order.  Columns and per-column ``(min, max, null_count)`` zone
    maps are decomposed lazily and cached — a sealed chunk belongs to an
    immutable rid range, so the cache is safe to share across versions
    and threads (filling a cache slot is idempotent).

    Scans hand ``rows`` to the executor directly (one batch per chunk in
    batch mode), so pruned scans never re-materialise row lists.
    """

    __slots__ = ("start", "rows", "count", "_width", "_columns", "_zones")

    def __init__(self, start: int, rows: list[Row], width: int):
        self.start = start
        self.rows = rows
        self.count = len(rows)
        self._width = width
        self._columns: list[list[object] | None] = [None] * width
        self._zones: list[tuple[object, object, int] | None] = [None] * width

    def column(self, position: int) -> list[object]:
        """Values of one column across the chunk's live rows (cached)."""
        column = self._columns[position]
        if column is None:
            column = [row[position] for row in self.rows]
            self._columns[position] = column
        return column

    def zone(self, position: int) -> tuple[object, object, int]:
        """``(min, max, null_count)`` zone map of one column (cached)."""
        zone = self._zones[position]
        if zone is None:
            zone = zone_bounds(self.column(position))
            self._zones[position] = zone
        return zone

    def seal(self) -> None:
        """Eagerly decompose every column and compute its zone map."""
        for position in range(self._width):
            self.zone(position)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ColumnChunk start={self.start} live={self.count}>"


class UndoLog:
    """Collects inverse operations for one transaction.

    Thread-safe: concurrent statements of a shared database may record
    undo entries into one log; rollback drains atomically-popped
    entries in reverse order.
    """

    def __init__(self) -> None:
        self._entries: list[Callable[[], None]] = []
        self._lock = threading.RLock()

    def record(self, undo: Callable[[], None]) -> None:
        """Append one inverse operation."""
        with self._lock:
            self._entries.append(undo)

    def rollback(self) -> None:
        """Apply all undo entries in reverse order, then clear."""
        while True:
            with self._lock:
                if not self._entries:
                    return
                entry = self._entries.pop()
            entry()

    def clear(self) -> None:
        """Forget all undo entries (commit)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class HashIndex:
    """A non-unique hash index over one column position.

    Buckets are rid lists in insertion order.  Within one arena rids are
    only ever *appended* (removals happen by rebuilding the arena), so a
    concurrent reader taking ``sorted(bucket)`` sees a consistent
    prefix; appended rids beyond the reader's ``row_limit`` are filtered
    by the version doing the lookup.
    """

    def __init__(self, position: int):
        self.position = position
        self._buckets: dict[object, list[int]] = {}

    def add(self, rid: int, row: Row) -> None:
        """Index one row under its key value."""
        self._buckets.setdefault(row[self.position], []).append(rid)

    def remove(self, rid: int, row: Row) -> None:
        """Drop one row from its key bucket (rebuild-only; never called
        on an arena that concurrent readers may hold)."""
        bucket = self._buckets.get(row[self.position])
        if bucket is not None and rid in bucket:
            bucket.remove(rid)
            if not bucket:
                del self._buckets[row[self.position]]

    def lookup(self, value: object) -> list[int]:
        """Rids whose key equals ``value``, in ascending rid order."""
        return sorted(self._buckets.get(value, ()))

    def copy(self) -> "HashIndex":
        """Deep-enough copy for a copy-on-write arena rebuild."""
        clone = HashIndex(self.position)
        clone._buckets = {key: list(rids) for key, rids in self._buckets.items()}
        return clone


class _Arena:
    """The physical storage a family of table versions shares.

    ``rows`` is append-only while the arena is current; tombstoned slots
    are ``None``.  ``pk_index`` and ``indexes`` cover every live row up
    to ``len(rows)`` — versions bound to the arena filter both by their
    own ``row_limit``.
    """

    __slots__ = ("rows", "pk_index", "indexes", "chunk_state")

    def __init__(
        self,
        rows: list[Row | None] | None = None,
        pk_index: dict[tuple, int] | None = None,
        indexes: dict[str, HashIndex] | None = None,
    ):
        self.rows: list[Row | None] = rows if rows is not None else []
        self.pk_index: dict[tuple, int] = pk_index if pk_index is not None else {}
        self.indexes: dict[str, HashIndex] = indexes if indexes is not None else {}
        #: Lazily-built chunk cache: ``(chunk_size, sealed_chunks)``
        #: where ``sealed_chunks`` only ever grows while the arena is
        #: current.  ``None`` until the first chunked scan.
        self.chunk_state: tuple[int, list[ColumnChunk]] | None = None

    def copy(self) -> "_Arena":
        """Copy-on-write clone (rows list, pk index, secondary indexes).

        The chunk cache is *not* carried over: the clone's rows are
        about to be mutated, so its chunks and zone maps are rebuilt
        lazily on the next chunked scan.
        """
        return _Arena(
            rows=list(self.rows),
            pk_index=dict(self.pk_index),
            indexes={name: index.copy() for name, index in self.indexes.items()},
        )


class TableVersion:
    """One immutable, consistent view of a table.

    Readers resolve a version once per statement and iterate it without
    locks: the arena's rows below ``row_limit`` never change after the
    version is published.
    """

    __slots__ = ("version_id", "arena", "row_limit", "live")

    def __init__(self, version_id: int, arena: _Arena, row_limit: int, live: int):
        self.version_id = version_id
        self.arena = arena
        self.row_limit = row_limit
        self.live = live

    def scan(self) -> Iterator[tuple[int, Row]]:
        """Yield (rid, row) for every live row of this version."""
        rows = self.arena.rows
        for rid in range(self.row_limit):
            row = rows[rid]
            if row is not None:
                yield rid, row

    def rows(self) -> list[Row]:
        """All live rows of this version (materialised)."""
        # The slice is one atomic bytecode: a concurrent append to the
        # arena cannot tear it.
        return [row for row in self.arena.rows[: self.row_limit] if row is not None]

    def row_at(self, rid: int) -> Row | None:
        """Row at ``rid`` as this version sees it (None if invisible)."""
        if not (0 <= rid < self.row_limit):
            return None
        return self.arena.rows[rid]

    def lookup_pk(self, key: tuple, pk_positions: Sequence[int]) -> Row | None:
        """Fetch one row by primary-key value within this version."""
        rid = self.arena.pk_index.get(key)
        if rid is None or rid >= self.row_limit:
            return None
        return self.arena.rows[rid]

    def __len__(self) -> int:
        return self.live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TableVersion v{self.version_id} rows<{self.row_limit} "
            f"live={self.live}>"
        )


class Table:
    """One heap table with optional primary key and secondary indexes.

    The public mutation/read API is unchanged from the single-version
    heap; reads go through the current :class:`TableVersion` and
    mutations through the write latch.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[ColumnDef],
        primary_key: Sequence[str] = (),
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        self.name = name
        self.columns = list(columns)
        self.primary_key = [k for k in primary_key]
        self._pk_positions = [self._position(k) for k in self.primary_key]
        #: Per-table write latch: every mutation (and a DML statement's
        #: whole write_transaction) holds it; readers never take it.
        self._latch = threading.RLock()
        self._current = TableVersion(0, _Arena(), 0, 0)
        #: Called as ``publish_hook(table, version)`` after each publish
        #: (set by the owning database to advance its snapshot map).
        self.publish_hook: Callable[["Table", TableVersion], None] | None = None
        self.versions_published = 0
        #: Rids per column chunk (the zone-map granularity).
        self.chunk_size = chunk_size
        #: Times an arena's sealed-chunk cache was discarded and rebuilt
        #: (COW rebuild after UPDATE/DELETE, or a chunk-size change).
        self.zone_map_rebuilds = 0
        #: Total sealed chunks produced across all arenas.
        self.chunks_sealed = 0
        self._chunks_built = False

    # -- version plumbing ------------------------------------------------------------

    @property
    def current_version(self) -> TableVersion:
        """The latest published version (lock-free single ref read)."""
        return self._current

    def _publish(self, version: TableVersion) -> None:
        self._current = version
        self.versions_published += 1
        if self.publish_hook is not None:
            self.publish_hook(self, version)

    def write_transaction(self, expected: TableVersion | None = None):
        """Context manager holding the write latch for one DML statement.

        ``expected`` is the statement's pinned version of this table;
        first-writer-wins: if a different version is current when the
        latch is acquired, the statement conflicts and raises a
        retryable :class:`~repro.errors.WriteConflictError`.
        """
        return _WriteTransaction(self, expected)

    # -- helpers -------------------------------------------------------------------

    def _position(self, column: str) -> int:
        target = column.upper()
        for index, col in enumerate(self.columns):
            if col.name.upper() == target:
                return index
        raise ExecutionError(f"table {self.name!r} has no column {column!r}")

    def _pk_key(self, row: Row) -> tuple:
        return tuple(row[p] for p in self._pk_positions)

    def _coerce(self, values: Sequence[object]) -> Row:
        if len(values) != len(self.columns):
            raise ExecutionError(
                f"table {self.name!r} expects {len(self.columns)} values, "
                f"got {len(values)}"
            )
        row = []
        for value, column in zip(values, self.columns):
            coerced = coerce_into(value, column.type)
            if coerced is None and column.not_null:
                raise ConstraintError(
                    f"column {column.name!r} of table {self.name!r} is NOT NULL"
                )
            row.append(coerced)
        return tuple(row)

    # -- mutations -------------------------------------------------------------------

    def insert(self, values: Sequence[object], undo: UndoLog | None = None) -> int:
        """Insert one row; returns its rid.

        Append-only fast path: the current arena is extended in place
        and a successor version published; earlier versions keep their
        smaller ``row_limit`` and never see the new row.
        """
        row = self._coerce(values)
        with self._latch:
            current = self._current
            arena = current.arena
            if self._pk_positions:
                key = self._pk_key(row)
                if any(part is None for part in key):
                    raise ConstraintError(
                        f"primary key of table {self.name!r} cannot contain NULL"
                    )
                existing = arena.pk_index.get(key)
                if existing is not None and existing < current.row_limit:
                    raise ConstraintError(
                        f"duplicate primary key {key!r} in table {self.name!r}"
                    )
            rid = current.row_limit
            arena.rows.append(row)
            if self._pk_positions:
                arena.pk_index[self._pk_key(row)] = rid
            for index in arena.indexes.values():
                index.add(rid, row)
            self._publish(
                TableVersion(
                    current.version_id + 1, arena, rid + 1, current.live + 1
                )
            )
        if undo is not None:
            undo.record(lambda: self._undo_insert(rid))
        return rid

    def _undo_insert(self, rid: int) -> None:
        row = self._current.row_at(rid)
        if row is None:  # pragma: no cover - defensive
            return
        self._detach(rid, row)

    def _rebuild(self, mutate: Callable[[_Arena], None], live_delta: int) -> None:
        """Publish a copy-on-write successor arena with ``mutate`` applied."""
        with self._latch:
            current = self._current
            arena = current.arena.copy()
            del arena.rows[current.row_limit :]  # drop rids beyond this version
            mutate(arena)
            self._publish(
                TableVersion(
                    current.version_id + 1,
                    arena,
                    current.row_limit,
                    current.live + live_delta,
                )
            )

    def _detach(self, rid: int, row: Row) -> None:
        def mutate(arena: _Arena) -> None:
            arena.rows[rid] = None
            if self._pk_positions:
                arena.pk_index.pop(self._pk_key(row), None)
            for index in arena.indexes.values():
                index.remove(rid, row)

        self._rebuild(mutate, live_delta=-1)

    def _attach(self, rid: int, row: Row) -> None:
        def mutate(arena: _Arena) -> None:
            while len(arena.rows) <= rid:  # pragma: no cover - defensive
                arena.rows.append(None)
            arena.rows[rid] = row
            if self._pk_positions:
                arena.pk_index[self._pk_key(row)] = rid
            for index in arena.indexes.values():
                index.add(rid, row)

        self._rebuild(mutate, live_delta=1)

    def delete_rid(self, rid: int, undo: UndoLog | None = None) -> None:
        """Delete the row at ``rid``."""
        with self._latch:
            row = self._row_at(rid)
            self._detach(rid, row)
        if undo is not None:
            undo.record(lambda: self._attach(rid, row))

    def update_rid(
        self, rid: int, values: Sequence[object], undo: UndoLog | None = None
    ) -> None:
        """Replace the row at ``rid`` with new values."""
        with self._latch:
            old = self._row_at(rid)
            new = self._coerce(values)
            if self._pk_positions:
                new_key = self._pk_key(new)
                if any(part is None for part in new_key):
                    raise ConstraintError(
                        f"primary key of table {self.name!r} cannot contain NULL"
                    )
                current = self._current
                existing = current.arena.pk_index.get(new_key)
                if (
                    existing is not None
                    and existing < current.row_limit
                    and existing != rid
                ):
                    raise ConstraintError(
                        f"duplicate primary key {new_key!r} in table {self.name!r}"
                    )

            def mutate(arena: _Arena) -> None:
                arena.rows[rid] = new
                if self._pk_positions:
                    arena.pk_index.pop(self._pk_key(old), None)
                    arena.pk_index[self._pk_key(new)] = rid
                for index in arena.indexes.values():
                    index.remove(rid, old)
                    index.add(rid, new)

            self._rebuild(mutate, live_delta=0)
        if undo is not None:

            def revert() -> None:
                self._detach(rid, new)
                self._attach(rid, old)

            undo.record(revert)

    def _row_at(self, rid: int) -> Row:
        current = self._current
        if not (0 <= rid < current.row_limit):
            raise ExecutionError(f"invalid rid {rid} for table {self.name!r}")
        row = current.arena.rows[rid]
        if row is None:
            raise ExecutionError(f"rid {rid} of table {self.name!r} is deleted")
        return row

    # -- access ----------------------------------------------------------------------

    def scan(self) -> Iterator[tuple[int, Row]]:
        """Yield (rid, row) for every live row of the current version."""
        return self._current.scan()

    def rows(self) -> list[Row]:
        """All live rows of the current version (materialised)."""
        return self._current.rows()

    def columnar_chunks(self, version: TableVersion) -> list[ColumnChunk]:
        """The version's live rows as column chunks with zone maps.

        Chunks are rid-aligned: sealed chunk ``k`` covers rids
        ``[k * chunk_size, (k + 1) * chunk_size)`` of the version's
        arena.  Sealing is lazy and incremental: chunks fully below the
        version's ``row_limit`` are decomposed once (under the write
        latch) and cached on the arena — the append-only INSERT fast
        path never touches sealed chunks, it merely makes new rid ranges
        eligible for sealing, while a copy-on-write UPDATE/DELETE arena
        starts with an empty cache and rebuilds on first access.  The
        rid range straddling ``row_limit`` becomes a fresh, uncached
        tail chunk so versions pinned at different limits never share
        mutable state.

        Concatenating the chunks' rows reproduces ``version.rows()``
        exactly (live rows in rid order) — the bit-identity anchor for
        zone-map-pruned scans in every execution mode.
        """
        size = self.chunk_size
        arena = version.arena
        width = len(self.columns)
        full = version.row_limit // size
        with self._latch:
            state = arena.chunk_state
            if state is None or state[0] != size:
                if self._chunks_built:
                    self.zone_map_rebuilds += 1
                self._chunks_built = True
                state = (size, [])
                arena.chunk_state = state
            sealed = state[1]
            while len(sealed) < full:
                start = len(sealed) * size
                live = [
                    row
                    for row in arena.rows[start : start + size]
                    if row is not None
                ]
                chunk = ColumnChunk(start, live, width)
                chunk.seal()
                self.chunks_sealed += 1
                sealed.append(chunk)
        chunks = sealed[:full]
        tail_start = full * size
        if tail_start < version.row_limit:
            live = [
                row
                for row in arena.rows[tail_start : version.row_limit]
                if row is not None
            ]
            if live:
                chunks.append(ColumnChunk(tail_start, live, width))
        return chunks

    def lookup_pk(self, key: tuple) -> Row | None:
        """Fetch one row by primary-key value tuple."""
        if not self._pk_positions:
            raise ExecutionError(f"table {self.name!r} has no primary key")
        return self._current.lookup_pk(key, self._pk_positions)

    def create_index(self, column: str) -> HashIndex:
        """Create (or return) a hash index over ``column`` in the
        current arena (built under the write latch)."""
        key = column.upper()
        with self._latch:
            arena = self._current.arena
            if key in arena.indexes:
                return arena.indexes[key]
            index = HashIndex(self._position(column))
            for rid, row in self._current.scan():
                index.add(rid, row)
            arena.indexes[key] = index
            return index

    def index_lookup(self, column: str, value: object) -> list[Row]:
        """Rows whose ``column`` equals ``value`` via the hash index."""
        self.create_index(column)
        return self.version_index_lookup(self._current, column, value)

    def version_index_lookup(
        self, version: TableVersion, column: str, value: object
    ) -> list[Row]:
        """Index-assisted equality lookup against one pinned version.

        If the version's arena carries the index (or the version is
        current, in which case the index is created on demand), rids are
        filtered by the version's ``row_limit``; a version bound to an
        older arena without the index falls back to a linear scan — the
        same rows in the same (rid) order, just without the probe.
        """
        key = column.upper()
        index = version.arena.indexes.get(key)
        if index is None and version.arena is self._current.arena:
            self.create_index(column)
            index = version.arena.indexes.get(key)
        if index is None:
            position = self._position(column)
            return [row for _, row in version.scan() if row[position] == value]
        rows = version.arena.rows
        return [
            rows[rid]
            for rid in index.lookup(value)
            if rid < version.row_limit and rows[rid] is not None
        ]

    def __len__(self) -> int:
        return self._current.live


class _WriteTransaction:
    """Holds a table's write latch for one DML statement, with
    first-writer-wins validation against the statement's pinned version."""

    def __init__(self, table: Table, expected: TableVersion | None):
        self._table = table
        self._expected = expected

    def __enter__(self) -> TableVersion:
        self._table._latch.acquire()
        current = self._table.current_version
        if self._expected is not None and (
            current.version_id != self._expected.version_id
        ):
            self._table._latch.release()
            raise WriteConflictError(
                self._table.name, self._expected.version_id, current.version_id
            )
        return current

    def __exit__(self, *exc) -> None:
        self._table._latch.release()


class Snapshot:
    """A database-wide snapshot: one consistent TableVersion per table.

    Immutable; the database publishes a successor map (under its short
    visibility lock) whenever any table publishes a version, so pinning
    a snapshot is a single attribute read and the versions within one
    snapshot are mutually consistent.
    """

    __slots__ = ("epoch", "_versions")

    def __init__(self, epoch: int, versions: dict[Table, TableVersion]):
        self.epoch = epoch
        self._versions = versions

    def version_for(self, table: Table) -> TableVersion | None:
        """This snapshot's version of ``table`` (None if untracked)."""
        return self._versions.get(table)

    def successor(self, table: Table, version: TableVersion) -> "Snapshot":
        """A new snapshot with ``table`` advanced to ``version``."""
        versions = dict(self._versions)
        versions[table] = version
        return Snapshot(self.epoch + 1, versions)

    def without(self, table: Table) -> "Snapshot":
        """A new snapshot with ``table`` dropped (DROP TABLE)."""
        versions = dict(self._versions)
        versions.pop(table, None)
        return Snapshot(self.epoch + 1, versions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Snapshot epoch={self.epoch} tables={len(self._versions)}>"
