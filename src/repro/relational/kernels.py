"""Vectorized join/aggregate kernels over :class:`~repro.data.table.Table`.

Joins are implemented the classic sort-merge way with numpy primitives:
each key column's factorization (sorted uniques + dense codes) is cached
on its immutable table, left keys are mapped into the *right* side's
code space (a left value the right side never holds maps to ``-1`` — it
cannot match, so no union factorization is needed), the right side is
stably sorted by code, and each left key finds its match range via
``np.searchsorted`` — no Python-level row loop anywhere.  A first join
against a table costs O((n+m) log m); repeat joins against the same
table (star-schema dimensions, resampling loops) reuse the cached
factorization and skip the sort entirely.

Two properties matter more than speed and are guaranteed:

* **determinism / order stability** — output rows follow the left
  table's row order; a key that matches several right rows fans out in
  the right table's original row order (stable sort).  The same inputs
  produce byte-identical output on every run, which is what lets joins
  memoize in the artifact store and run as engine nodes at any
  ``n_jobs``.
* **FACT role propagation** — the joined schema is *derived*, not
  copied: key columns take the strictest role of their two lineages and
  are promoted to quasi-identifiers when the join fans out (see
  :mod:`repro.relational.propagation`); a SENSITIVE column stays
  SENSITIVE through every join.

Missing keys follow SQL semantics: a NaN numeric key or empty-string
categorical key never matches anything — inner joins drop such rows,
left joins emit them unmatched.  Unmatched right-side values are filled
with NaN (numeric) or ``""`` (categorical).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.data.schema import (
    ColumnRole,
    ColumnSpec,
    ColumnType,
    Schema,
    numeric,
)
from repro.data.table import Table, _map_into
from repro.exceptions import DataError, SchemaError
from repro.relational.propagation import propagate_key_role

#: The categorical missing-key / fill sentinel.
MISSING_CATEGORICAL = ""

#: Supported aggregate operations.
AGGREGATE_OPS = ("count", "sum", "mean", "min", "max")


def _as_names(value: str | Sequence[str], what: str) -> list[str]:
    names = [value] if isinstance(value, str) else list(value)
    if not names:
        raise DataError(f"{what} needs at least one column")
    return names


def _composite_codes(parts: list[np.ndarray],
                     sizes: list[int]) -> np.ndarray:
    """Combine per-column code arrays into one composite code per row.

    ``parts[i]`` holds codes in ``[0, sizes[i])`` with ``-1`` marking a
    missing key.  The combination is lexicographic-order-preserving
    (sorting by composite sorts by key values), and ``-1`` in any column
    forces the composite to ``-1``.  Falls back to a row-wise
    ``np.unique`` when the stride product could overflow int64.
    """
    first = parts[0].astype(np.int64, copy=False)
    if len(parts) == 1:
        return first
    invalid = first < 0
    for part in parts[1:]:
        invalid = invalid | (part < 0)
    total = 1
    for size in sizes:
        total *= max(int(size), 1)
    if total < 2 ** 62:
        composite = first
        for part, size in zip(parts[1:], sizes[1:]):
            composite = composite * np.int64(max(int(size), 1)) + part
    else:
        stacked = np.stack(parts, axis=1)
        _, composite = np.unique(stacked, axis=0, return_inverse=True)
        composite = composite.astype(np.int64)
    return np.where(invalid, np.int64(-1), composite)


def _table_codes(table: Table, names: list[str]) -> np.ndarray:
    """Composite key codes for one table's rows (missing → ``-1``).

    Uses the table's cached per-column factorizations; codes ascend
    with the key values, so sorting by code sorts by key.
    """
    parts, sizes = [], []
    for name in names:
        uniques, codes, _, _ = table._factorized(name)
        parts.append(codes)
        sizes.append(len(uniques))
    return _composite_codes(parts, sizes)


def _join_codes(left: Table, right: Table, on: list[str],
                right_on: list[str]):
    """Key codes for both sides, expressed in the right table's space.

    Returns ``(left_codes, right_codes, right_order)``; ``right_order``
    is the right column's cached stable sort (matchable rows only) for
    single-key joins, ``None`` when :func:`_match_ranges` must sort a
    multi-key composite itself.
    """
    left_parts, right_parts, sizes = [], [], []
    right_order = None
    for left_name, right_name in zip(on, right_on):
        left_uniques, left_codes, _, _ = left._factorized(left_name)
        right_uniques, right_codes, order, n_missing = (
            right._factorized(right_name)
        )
        mapping = _map_into(left_uniques, right_uniques)
        if len(left_uniques):
            mapped = mapping[np.maximum(left_codes, 0)]
            mapped = np.where(left_codes < 0, np.int64(-1), mapped)
        else:
            mapped = left_codes
        left_parts.append(mapped)
        right_parts.append(right_codes)
        sizes.append(len(right_uniques))
        if len(on) == 1:
            right_order = order[n_missing:]
    return (
        _composite_codes(left_parts, sizes),
        _composite_codes(right_parts, sizes),
        right_order,
    )


def _match_ranges(left_codes: np.ndarray, right_codes: np.ndarray,
                  order: np.ndarray | None = None):
    """Per-left-row match ranges into the stably sorted right side.

    Returns ``(order, starts, ends)`` where ``order`` stably sorts the
    matchable right rows by key code and ``order[starts[i]:ends[i]]``
    are left row ``i``'s matches in the right table's original row
    order.  A precomputed ``order`` (the cached single-key sort) skips
    the argsort.
    """
    if order is None:
        matchable = right_codes >= 0
        candidates = np.flatnonzero(matchable)
        order = candidates[np.argsort(right_codes[candidates],
                                      kind="stable")]
    sorted_codes = right_codes[order]
    starts = np.searchsorted(sorted_codes, left_codes, side="left")
    ends = np.searchsorted(sorted_codes, left_codes, side="right")
    unmatched = left_codes < 0
    starts = np.where(unmatched, 0, starts)
    ends = np.where(unmatched, 0, ends)
    return order, starts, ends


def _expand(starts: np.ndarray, ends: np.ndarray):
    """Vectorized per-row range expansion.

    For counts ``c_i = ends_i - starts_i``, returns ``(left_take,
    right_positions)``: left row ``i`` repeated ``c_i`` times, aligned
    with the flattened ``range(starts_i, ends_i)`` positions.
    """
    counts = ends - starts
    total = int(counts.sum())
    left_take = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
    if total == 0:
        return left_take, np.zeros(0, dtype=np.intp)
    cumulative = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.intp) - np.repeat(cumulative, counts)
    positions = np.repeat(starts, counts) + offsets
    return left_take, positions.astype(np.intp)


def _fill_value(ctype: ColumnType):
    return np.nan if ctype is ColumnType.NUMERIC else MISSING_CATEGORICAL


def _joined_schema(left: Table, right: Table, on: list[str],
                   right_on: list[str], suffix: str,
                   fan_out: bool) -> tuple[Schema, list[tuple[str, str, str]]]:
    """The join output schema plus the column plan.

    Returns ``(schema, plan)`` where each plan entry is ``(output_name,
    side, source_name)`` with side ``"left"`` or ``"right"``.  Key
    columns appear once (left's name) with a propagated role; non-key
    right columns clashing with a left name get ``suffix`` appended.
    """
    specs: list[ColumnSpec] = []
    plan: list[tuple[str, str, str]] = []
    right_key_roles = {
        left_name: right.schema[right_name].role
        for left_name, right_name in zip(on, right_on)
    }
    left_has_target = any(
        spec.role is ColumnRole.TARGET for spec in left.schema
    )
    for spec in left.schema:
        if spec.name in right_key_roles:
            specs.append(propagate_key_role(
                spec, spec.role, right_key_roles[spec.name], fan_out
            ))
        else:
            specs.append(spec)
        plan.append((specs[-1].name, "left", spec.name))
    taken = {spec.name for spec in specs}
    for spec in right.schema:
        if spec.name in right_on:
            continue
        name = spec.name
        if name in taken:
            name = f"{name}{suffix}"
            if name in taken:
                raise SchemaError(
                    f"join output column {name!r} still collides after "
                    f"suffixing; pick a different suffix"
                )
        role = spec.role
        if role is ColumnRole.TARGET and left_has_target:
            # Two TARGET declarations would make the joined table's
            # target ambiguous; the left (driving) side keeps it.
            role = ColumnRole.METADATA
        specs.append(ColumnSpec(name, spec.ctype, role, spec.description))
        plan.append((name, "right", spec.name))
        taken.add(name)
    return Schema(specs), plan


def _validate_keys(left: Table, right: Table, on: list[str],
                   right_on: list[str]) -> None:
    if len(on) != len(right_on):
        raise DataError(
            f"join got {len(on)} left key(s) but {len(right_on)} right key(s)"
        )
    for left_name, right_name in zip(on, right_on):
        left_spec = left.schema[left_name]
        right_spec = right.schema[right_name]
        if left_spec.ctype is not right_spec.ctype:
            raise SchemaError(
                f"cannot join {left_name!r} ({left_spec.ctype.value}) "
                f"against {right_name!r} ({right_spec.ctype.value})"
            )


def _join_one(left: Table, right: Table, on: list[str],
              right_on: list[str], suffix: str,
              keep_unmatched: bool) -> tuple[Table, bool]:
    """Join one left table; returns ``(result, fan_out)``."""
    _validate_keys(left, right, on, right_on)

    left_codes, right_codes, right_order = _join_codes(
        left, right, on, right_on
    )
    order, starts, ends = _match_ranges(left_codes, right_codes,
                                        right_order)
    counts = ends - starts
    fan_out = bool(counts.size) and int(counts.max()) > 1

    if keep_unmatched:
        # Left join: unmatched rows emit once, with right side filled.
        ends_eff = np.where(counts == 0, starts + 1, ends)
        left_take, positions = _expand(starts, ends_eff)
        matched = np.repeat(counts > 0, np.where(counts == 0, 1, counts))
        right_take = np.where(
            matched, order[np.minimum(positions, len(order) - 1)]
            if len(order) else 0, 0,
        ).astype(np.intp)
    else:
        left_take, positions = _expand(starts, ends)
        right_take = order[positions] if len(order) else positions
        matched = np.ones(len(left_take), dtype=bool)

    schema, plan = _joined_schema(left, right, on, right_on, suffix, fan_out)
    columns: dict[str, np.ndarray] = {}
    for output_name, side, source in plan:
        if side == "left":
            columns[output_name] = left.column(source)[left_take]
        else:
            source_values = right.column(source)
            if len(source_values):
                values = source_values[right_take]
            else:
                fill = _fill_value(right.schema[source].ctype)
                values = np.full(len(right_take), fill,
                                 dtype=source_values.dtype)
            if not matched.all():
                values = values.copy()
                values[~matched] = _fill_value(right.schema[source].ctype)
            columns[output_name] = values
    # Output columns are gathers/fills of canonical arrays — skip the
    # per-element re-coercion in Table.__init__ (the join's hot path).
    return Table._from_canonical(schema, columns, len(left_take)), fan_out


def _reschema(table: Table, schema: Schema) -> Table:
    """Zero-copy schema swap (same names/types, different roles)."""
    return Table._from_canonical(
        schema,
        {name: table.column(name) for name in schema.names},
        table.n_rows,
    )


def _join(left, right: Table, on, right_on, suffix: str,
          keep_unmatched: bool) -> Table:
    on = _as_names(on, "join")
    right_on = on if right_on is None else _as_names(right_on, "join")
    if isinstance(left, Table):
        return _join_one(left, right, on, right_on, suffix,
                         keep_unmatched)[0]

    # Streaming: ``left`` is an iterable of shard-sized chunks, joined
    # one at a time (never materialized as one table up front).  Fan-out
    # detection is global — a key that fans out in *any* chunk promotes
    # the joined key columns to quasi-identifiers everywhere, exactly as
    # the equivalent single-table join would — so chunks joined before
    # the first fan-out are re-schema'd (a zero-copy role swap) before
    # the streamed concat.
    outputs: list[Table] = []
    fan_outs: list[bool] = []
    for chunk in left:
        result, chunk_fan_out = _join_one(
            chunk, right, on, right_on, suffix, keep_unmatched
        )
        outputs.append(result)
        fan_outs.append(chunk_fan_out)
    if not outputs:
        raise DataError("join needs at least one left table")
    if any(fan_outs) and not all(fan_outs):
        promoted = outputs[fan_outs.index(True)].schema
        outputs = [
            output if chunk_fan_out else _reschema(output, promoted)
            for output, chunk_fan_out in zip(outputs, fan_outs)
        ]
    if len(outputs) == 1:
        return outputs[0]
    return Table.concat(outputs)


def inner_join(left, right: Table, on, *, right_on=None,
               suffix: str = "_r") -> Table:
    """Rows of ``left`` matched with rows of ``right`` on equal keys.

    ``on`` is one column name or a list (same names on both sides unless
    ``right_on`` gives the right table's key names).  Output order is
    the left table's row order; many-to-many keys fan out in the right
    table's row order.  Missing keys (NaN / ``""``) never match.

    ``left`` may also be an *iterable* of same-schema tables (e.g.
    ``PartitionedTable.shards()``): chunks join one at a time and the
    results concatenate in order — identical output to joining the
    concatenated table, without holding all chunks at once.
    """
    return _join(left, right, on, right_on, suffix, keep_unmatched=False)


def left_join(left, right: Table, on, *, right_on=None,
              suffix: str = "_r") -> Table:
    """Every ``left`` row, with ``right`` columns where keys match.

    Unmatched left rows keep exactly one output row with the right-side
    columns filled (NaN for numeric, ``""`` for categorical).  As with
    :func:`inner_join`, ``left`` may be an iterable of same-schema
    chunk tables, streamed through one at a time.
    """
    return _join(left, right, on, right_on, suffix, keep_unmatched=True)


def _aggregate_schema(table: Table, by: list[str],
                      spec: list[tuple[str, str | None, str]]) -> Schema:
    columns = [table.schema[name] for name in by]
    for output_name, source, op in spec:
        if source is None:
            role = ColumnRole.FEATURE
            description = "group row count"
        else:
            source_spec = table.schema[source]
            role = source_spec.role
            if role is ColumnRole.TARGET:
                role = ColumnRole.FEATURE
            description = f"{op} of {source}"
        columns.append(numeric(output_name, role=role,
                               description=description))
    return Schema(columns)


def _normalise_aggregations(table: Table, aggregations) -> list:
    """``[(output_name, source_column_or_None, op), ...]`` validated."""
    if isinstance(aggregations, Mapping):
        items = list(aggregations.items())
    else:
        items = [(None, entry) for entry in aggregations]
    spec = []
    for output_name, entry in items:
        if isinstance(entry, str):
            source, op = None, entry
        else:
            source, op = entry
        op = str(op)
        if op not in AGGREGATE_OPS:
            raise DataError(
                f"unknown aggregate op {op!r}; one of {AGGREGATE_OPS}"
            )
        if op == "count":
            source = None
        else:
            if source is None:
                raise DataError(f"{op} needs a source column")
            if table.schema[source].ctype is not ColumnType.NUMERIC:
                raise DataError(
                    f"{op} needs a numeric column, {source!r} is not"
                )
        if output_name is None:
            output_name = op if source is None else f"{source}_{op}"
        spec.append((str(output_name), source, op))
    names = [name for name, _, _ in spec]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise DataError(
            f"duplicate aggregate output names: {sorted(duplicates)}"
        )
    return spec


def group_aggregate(table: Table, by, aggregations) -> Table:
    """Grouped aggregates, one output row per distinct key combination.

    ``by`` is one column name or a list; ``aggregations`` maps output
    names to ``(column, op)`` pairs (or ``"count"``), with ops from
    :data:`AGGREGATE_OPS`.  Output rows are sorted ascending by the
    group keys (missing keys — NaN / ``""`` — form one group, first),
    so the result is a deterministic function of the input rows.
    Aggregates of a TARGET column come back as FEATUREs (a grouped
    summary is a derived covariate, not the decision variable); other
    roles are inherited — the mean of a SENSITIVE column is SENSITIVE.
    """
    by = _as_names(by, "group_aggregate")
    spec = _normalise_aggregations(table, aggregations)
    schema = _aggregate_schema(table, by, spec)

    codes = _table_codes(table, by)
    if len(by) == 1:
        order = table._factorized(by[0])[2]
    else:
        order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    if len(sorted_codes):
        boundaries = np.flatnonzero(
            np.r_[True, sorted_codes[1:] != sorted_codes[:-1]]
        )
        counts = np.diff(np.r_[boundaries, len(sorted_codes)])
    else:
        boundaries = np.zeros(0, dtype=np.intp)
        counts = np.zeros(0, dtype=np.int64)
    first_rows = order[boundaries]

    columns: dict[str, np.ndarray] = {
        name: table.column(name)[first_rows] for name in by
    }
    for output_name, source, op in spec:
        if op == "count":
            columns[output_name] = counts.astype(np.float64)
            continue
        values = table.column(source)[order]
        if not len(values):
            columns[output_name] = np.zeros(0, dtype=np.float64)
            continue
        if op == "sum":
            result = np.add.reduceat(values, boundaries)
        elif op == "mean":
            result = np.add.reduceat(values, boundaries) / counts
        elif op == "min":
            result = np.minimum.reduceat(values, boundaries)
        else:
            result = np.maximum.reduceat(values, boundaries)
        columns[output_name] = result.astype(np.float64)
    return Table._from_canonical(schema, columns, len(first_rows))
