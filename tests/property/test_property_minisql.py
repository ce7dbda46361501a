"""Differential property tests: mini-SQL against stdlib ``sqlite3``.

Hypothesis generates small tables (INTEGER / FLOAT / TEXT columns with
NULLs) and queries inside the grammar mini-SQL supports -- ``SELECT ... FROM
... [JOIN ...] [WHERE ...]``; both engines load the same rows and must give
the same answer as a multiset (the dialect has no ``ORDER BY``).

Where mini-SQL is *meant* to differ from SQLite the difference is pinned by
its own assertion in :class:`TestDocumentedDeviations`, and the generator
stays clear of it: ``/`` is true division, ``%`` takes the divisor's sign,
dividing by zero raises, and a ``LEFT JOIN`` is refused.

Prepared statements get the same treatment against ``sqlite3``'s native
``?``: one statement prepared once and executed with several sets of values
must answer as SQLite does for each, and the batched index join must emit
exactly the rows, in exactly the order, of the row-at-a-time nested loop it
replaced.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SQLExecutionError, SQLSyntaxError
from repro.minisql import SQLEngine
from repro.storage.database import Database
from tests.storage.reference import lookup_key

# -- data ----------------------------------------------------------------------

small_ints = st.one_of(st.none(), st.integers(-1, 2))
halves = st.one_of(st.none(), st.integers(-2, 4).map(lambda n: n / 2))  # exact in binary
words = st.one_of(st.none(), st.text("abc", max_size=2))

#: t(id, a, f, s): id is unique, so (anything, id) is a total order.
t_rows = st.lists(st.tuples(small_ints, halves, words), max_size=14).map(
    lambda rows: [(i, *row) for i, row in enumerate(rows)]
)
#: u(k, label): the join's inner side; k repeats and may be NULL.
u_rows = st.lists(st.tuples(small_ints, words), max_size=8)
#: n(max, count): t's ``a`` and ``s`` under column names that were reserved words.
N_COLUMNS = [("max", "int"), ("count", "text")]

INDEX_CHOICES = [(), (("t", "a", "btree"),), (("t", "id", "btree"),), (("u", "k", "btree"),),
                 (("t", "a", "btree"), ("u", "k", "btree"))]


def load(t: list[tuple], u: list[tuple], indexes: tuple) -> tuple[SQLEngine, sqlite3.Connection]:
    database = Database()
    database.create_and_load("t", [("id", "int"), ("a", "int"), ("f", "float"), ("s", "text")], t)
    database.create_and_load("u", [("k", "int"), ("label", "text")], u)
    database.create_and_load("n", N_COLUMNS, [(a, s) for _, a, _, s in t])
    for number, (table, column, kind) in enumerate(indexes):
        database.table(table).create_index(f"ix{number}", column, kind)
    reference = sqlite3.connect(":memory:")
    reference.execute("CREATE TABLE t (id INTEGER, a INTEGER, f REAL, s TEXT)")
    reference.execute("CREATE TABLE u (k INTEGER, label TEXT)")
    reference.execute("CREATE TABLE n (max INTEGER, count TEXT)")
    reference.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", t)
    reference.executemany("INSERT INTO u VALUES (?, ?)", u)
    reference.executemany("INSERT INTO n VALUES (?, ?)", [(a, s) for _, a, _, s in t])
    return SQLEngine(database), reference


# -- queries -------------------------------------------------------------------

int_literals = st.integers(-1, 2).map(str)
number_literals = st.one_of(int_literals, st.integers(-2, 4).map(lambda n: str(n / 2)))
word_literals = st.text("abc", max_size=2).map(lambda word: f"'{word}'")
comparators = st.sampled_from(["=", "!=", "<>", "<", "<=", ">", ">="])


def predicates(prefix: str = "") -> st.SearchStrategy[str]:
    """WHERE clauses over t's columns (``prefix`` qualifies them for joins)."""
    number_columns = st.sampled_from([f"{prefix}id", f"{prefix}a", f"{prefix}f"])
    any_column = st.sampled_from([f"{prefix}id", f"{prefix}a", f"{prefix}f", f"{prefix}s"])
    negation = st.sampled_from(["", "NOT "])

    def typed(template: str, count: int) -> st.SearchStrategy[str]:
        """``template`` over a column and ``count`` literals of its type."""
        numeric = st.tuples(number_columns, st.lists(number_literals, min_size=count, max_size=count))
        textual = st.tuples(st.just(f"{prefix}s"), st.lists(word_literals, min_size=count, max_size=count))
        return st.one_of(numeric, textual).map(lambda pick: template.format(pick[0], *pick[1]))

    atoms = st.one_of(
        st.tuples(comparators, typed("{0} @ {1}", 1)).map(lambda p: p[1].replace("@", p[0])),
        st.tuples(negation, typed("{0} @BETWEEN {1} AND {2}", 2)).map(lambda p: p[1].replace("@", p[0])),
        st.tuples(negation, typed("{0} @IN ({1}, {2}, {3})", 3)).map(lambda p: p[1].replace("@", p[0])),
        st.tuples(any_column, negation).map(lambda p: f"{p[0]} IS {p[1]}NULL"),
        st.tuples(number_columns, comparators, number_columns).map(" ".join),
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["AND", "OR"]), inner).map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
            inner.map(lambda p: f"NOT ({p})"),
        ),
        max_leaves=4,
    )


def where(prefix: str = "") -> st.SearchStrategy[str]:
    return st.one_of(st.just(""), predicates(prefix).map(lambda p: f" WHERE {p}"))


projections = st.sampled_from([
    "id, a, f, s", "*", "a + 1 AS a1, f * 2 AS f2, s", "a * f AS af, -a AS minus, id - a AS d",
    "s, f - 0.5 AS g", "a + id * 2 AS mix",
])

queries = st.one_of(
    st.tuples(projections, where()).map(lambda p: f"SELECT {p[0]} FROM t{p[1]}"),
    # The key-probe shape: an IN-list (repeats allowed) on a possibly indexed column.
    st.tuples(
        st.sampled_from(["a", "id"]), st.lists(int_literals, min_size=2, max_size=3),
        st.one_of(st.just(""), predicates().map(lambda p: f" AND {p}")),
    ).map(lambda p: f"SELECT id, a, s FROM t WHERE {p[0]} IN ({', '.join(p[1])}){p[2]}"),
    st.tuples(where("t."), st.sampled_from(["t.a = u.k", "u.k = t.id"])).map(
        lambda p: f"SELECT t.id, t.s, u.k, u.label FROM t JOIN u ON {p[1]}{p[0]}"
    ),
    # Columns named like the aggregates the dialect no longer has; the
    # two-argument min/max are scalar functions, NULL if either side is.
    st.sampled_from([
        "SELECT max, count FROM n", "SELECT count, max + 1 AS m FROM n WHERE max > 0",
        "SELECT max(max, 0) AS hi, min(max, 1) AS lo, count FROM n WHERE count IS NOT NULL",
    ]),
)


def normalised(rows) -> list:
    """Rows with floats rounded and NULLs made sortable, as a sorted multiset."""
    def cell(value):
        if value is None:
            return (0, 0)
        return (1, round(value, 9) if isinstance(value, float) else value)

    return sorted((tuple(cell(value) for value in row) for row in rows), key=repr)


class TestMiniSQLAgreesWithSQLite:
    @given(t_rows, u_rows, st.sampled_from(INDEX_CHOICES), st.lists(queries, min_size=1, max_size=5))
    @settings(max_examples=400, deadline=None)
    def test_select_answers_match(self, t, u, indexes, statements):
        engine, reference = load(t, u, indexes)
        for sql in statements:
            ours = engine.execute(sql)
            theirs = reference.execute(sql).fetchall()
            assert normalised(ours.rows) == normalised(theirs), sql
            assert len(ours.columns) == (len(theirs[0]) if theirs else len(ours.columns))

    @given(
        t_rows,
        st.sampled_from(INDEX_CHOICES[:3]),
        st.lists(
            st.lists(st.tuples(st.integers(100, 103), small_ints), min_size=1, max_size=3).map(
                lambda rows: [(i, a, 1.5, "n") for i, a in rows]
            ),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_loads_leave_the_same_table(self, t, indexes, batches):
        engine, reference = load(t, [], indexes)
        for rows in batches:
            assert engine.database.table("t").bulk_load(rows) == len(rows)
            reference.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
            ours = engine.execute("SELECT * FROM t")
            theirs = reference.execute("SELECT * FROM t").fetchall()
            assert normalised(ours.rows) == normalised(theirs), rows
            # The indexes followed the heap: a key probe sees what a scan sees.
            via_index = engine.execute("SELECT id FROM t WHERE a = 1")
            assert sorted(via_index.rows) == sorted((row[0],) for row in ours.rows if row[1] == 1)


# -- prepared statements ---------------------------------------------------------

int_values = st.integers(-1, 2)
half_values = st.integers(-2, 4).map(lambda n: n / 2)
word_values = st.text("abc", max_size=2)
#: A key the probe may be handed: ``= NULL`` and ``IN (.., NULL)`` match nothing through it.
key_values = st.one_of(st.none(), int_values)


def parameterised(sql: str, *values: st.SearchStrategy) -> st.SearchStrategy[tuple[str, list[tuple]]]:
    """``sql`` with one to three sets of values for its ``?`` placeholders."""
    return st.lists(st.tuples(*values), min_size=1, max_size=3).map(lambda sets: (sql, sets))


#: ``(sql, [values, ...])``: each statement is prepared once and run with every set.
prepared_queries = st.one_of(
    # Key lookup, on a column that may or may not be indexed.
    parameterised("SELECT id, a, s FROM t WHERE a = ?", key_values),
    parameterised("SELECT id, f FROM t WHERE ? = id", key_values),
    # IN-list with repeats and NULLs, alone and under a residual filter.
    parameterised("SELECT id, a, s FROM t WHERE a IN (?, ?, ?)", key_values, key_values, key_values),
    parameterised("SELECT id, a FROM t WHERE id IN (?, 1, ?) AND f < ?", key_values, key_values, half_values),
    # The join, driven by a bound key, a bound IN-list, or filtered by a bound residual.
    parameterised("SELECT t.id, t.s, u.k, u.label FROM t JOIN u ON t.a = u.k WHERE t.id = ?", key_values),
    parameterised("SELECT t.id, u.label FROM t JOIN u ON u.k = t.a WHERE t.a IN (?, ?)", key_values, key_values),
    parameterised("SELECT t.id, u.k FROM t JOIN u ON t.a = u.k WHERE u.label = ? OR t.f >= ?", word_values, half_values),
    # Residual filters and projections over bound constants.
    parameterised("SELECT id FROM t WHERE f BETWEEN ? AND ? AND NOT a = ?", half_values, half_values, int_values),
    parameterised("SELECT id, a + ? AS shifted, s FROM t WHERE s <> ? OR a IS NULL", int_values, word_values),
    parameterised("SELECT id FROM t WHERE a NOT IN (?, ?) AND -? < id", int_values, int_values, int_values),
)

JOIN_INDEXES = [(("u", "k", "btree"), ("t", "id", "btree"))]


class TestPreparedStatementsAgreeWithSQLite:
    @given(t_rows, u_rows, st.sampled_from(INDEX_CHOICES + JOIN_INDEXES),
           st.lists(prepared_queries, min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_bound_answers_match(self, t, u, indexes, statements):
        engine, reference = load(t, u, indexes)
        for sql, value_sets in statements:
            statement = engine.prepare(sql)
            for values in value_sets:
                ours = engine.execute(statement.bind(*values))
                theirs = reference.execute(sql, values).fetchall()
                assert normalised(ours.rows) == normalised(theirs), (sql, values)

    @given(t_rows, st.lists(st.tuples(st.integers(100, 103), key_values, word_values), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_a_statement_prepared_before_a_load_reads_it(self, t, changes):
        engine, reference = load(t, [], (("t", "a", "btree"),))
        probe = engine.prepare("SELECT id, s FROM t WHERE a = ?")
        for values in changes:
            row = (values[0], values[1], 0.5, values[2])
            engine.database.table("t").insert(row)
            reference.execute("INSERT INTO t VALUES (?, ?, ?, ?)", row)
            rows = engine.execute("SELECT * FROM t").rows
            assert normalised(rows) == normalised(reference.execute("SELECT * FROM t").fetchall())
            # The plan prepared before the insert reads the rebuilt index.
            key = values[1]
            assert sorted(engine.execute(probe.bind(key)).rows, key=repr) == sorted(
                ((row[0], row[3]) for row in rows if key is not None and row[1] == key), key=repr
            )

    def test_a_placeholder_count_mismatch_is_a_typed_error(self):
        engine, _ = load([(0, 1, 0.5, "a")], [], ())
        statement = engine.prepare("SELECT id FROM t WHERE a = ? AND f < ?")
        assert statement.parameter_count == 2
        for values in ((), (1,), (1, 2.0, 3)):
            with pytest.raises(SQLExecutionError, match=r"takes 2 parameter\(s\), \d bound"):
                statement.bind(*values)
        with pytest.raises(SQLExecutionError, match="takes 1 parameter"):
            engine.execute("SELECT id FROM t WHERE a = ?")  # text binds nothing


class TestBatchedJoinEqualsTheNestedLoop:
    """`IndexNLJoin` probes and fetches in one batch; a nested loop that
    scans the inner table once per outer row -- no index -- is the
    reference, order included."""

    @given(t_rows, u_rows)
    @settings(max_examples=200, deadline=None)
    def test_same_rows_in_the_same_order(self, t, u):
        engine, _ = load(t, u, (("u", "k", "btree"),))
        sql = "SELECT * FROM t JOIN u ON t.a = u.k"
        assert "IndexNLJoin(inner=u as u on k)" in engine.explain(sql)
        inner = engine.database.table("u")
        expected = [
            outer_row + inner_row
            for outer_row in engine.execute("SELECT * FROM t").rows
            if outer_row[1] is not None  # a NULL outer key joins nothing
            for _, inner_row in lookup_key(inner, "k", outer_row[1])  # absent: none; repeated: all
        ]
        assert engine.execute(sql).rows == expected

    def test_null_absent_and_duplicate_keys(self):
        t = [(0, 1, 0.5, "a"), (1, None, 1.0, "b"), (2, 7, 1.5, "c"), (3, 1, 2.0, "d"), (4, 2, 2.5, "e")]
        u = [(1, "x"), (2, "y"), (None, "n"), (1, "z")]
        engine, reference = load(t, u, (("u", "k", "btree"),))
        sql = "SELECT t.id, u.label FROM t JOIN u ON t.a = u.k"
        # id 1 has a NULL key, id 2 an absent one, ids 0 and 3 meet key 1 twice, in heap order.
        assert engine.execute(sql).rows == [(0, "x"), (0, "z"), (3, "x"), (3, "z"), (4, "y")]
        assert sorted(engine.execute(sql).rows) == sorted(reference.execute(sql).fetchall())

    # Inner-only select lists: the join hands back the fetched inner rows as
    # they are (``inner rows`` in its plan line) and the projection picks from
    # them.  Each is (select list, the inner columns it names, by offset in u).
    INNER_ONLY = [("u.k, u.label", (0, 1)), ("u.label, u.k", (1, 0)),
                  ("u.label, u.k, u.label", (1, 0, 1)), ("label", (1,))]

    @staticmethod
    def nested_loop(engine, pick, where=lambda outer_row, inner_row: True):
        """The reference: one inner scan per outer row, in outer order."""
        inner = engine.database.table("u")
        return [
            pick(outer_row, inner_row)
            for outer_row in engine.execute("SELECT * FROM t").rows
            if outer_row[1] is not None
            for _, inner_row in lookup_key(inner, "k", outer_row[1])
            if where(outer_row, inner_row)
        ]

    @pytest.mark.parametrize("select, columns", INNER_ONLY, ids=[c for c, _ in INNER_ONLY])
    @given(t=t_rows, u=u_rows)
    @settings(max_examples=60, deadline=None)
    def test_an_inner_only_select_list_returns_the_inner_rows(self, select, columns, t, u):
        engine, _ = load(t, u, (("u", "k", "btree"),))
        sql = f"SELECT {select} FROM t JOIN u ON t.a = u.k"
        assert "IndexNLJoin(inner=u as u on k, inner rows)" in engine.explain(sql)
        pick = lambda outer_row, inner_row: tuple(inner_row[c] for c in columns)
        assert engine.execute(sql).rows == self.nested_loop(engine, pick)

    def test_inner_rows_for_null_absent_and_duplicate_keys(self):
        t = [(0, 1, 0.5, "a"), (1, None, 1.0, "b"), (2, 7, 1.5, "c"), (3, 1, 2.0, "d"), (4, 2, 2.5, "e")]
        u = [(1, "x"), (2, "y"), (None, "n"), (1, "z")]
        engine, _ = load(t, u, (("u", "k", "btree"),))
        sql = "SELECT u.label, u.k FROM t JOIN u ON t.a = u.k"
        assert engine.explain(sql).splitlines()[1].endswith(", inner rows)")
        assert engine.execute(sql).rows == [("x", 1), ("z", 1), ("x", 1), ("z", 1), ("y", 2)]

    def test_a_where_the_access_path_consumes_leaves_the_inner_rows(self):
        # The served tile statement's shape: the WHERE is the outer scan's key probe.
        t = [(0, 1, 0.5, "a"), (1, 2, 1.0, "b"), (2, 1, 1.5, "c")]
        engine, _ = load(t, [(1, "x"), (2, "y"), (1, "z")], (("t", "id", "btree"), ("u", "k", "btree")))
        sql = "SELECT u.label FROM t JOIN u ON t.a = u.k WHERE t.id = 2"
        plan = engine.explain(sql)
        assert "IndexKeyScan" in plan and "Filter" not in plan and ", inner rows)" in plan
        assert engine.execute(sql).rows == [("x",), ("z",)]

    # Shapes that keep joining outer row and inner row: (SQL, reference pick, reference filter).
    CONCATENATING = {
        "outer column": ("SELECT u.label, t.id FROM t JOIN u ON t.a = u.k",
                         lambda o, i: (i[1], o[0]), lambda o, i: True),
        "outer residual": ("SELECT u.k, u.label FROM t JOIN u ON t.a = u.k WHERE t.f > 0",
                           lambda o, i: i, lambda o, i: o[2] is not None and o[2] > 0),
        "inner residual": ("SELECT u.label FROM t JOIN u ON t.a = u.k WHERE u.label = 'a'",
                           lambda o, i: (i[1],), lambda o, i: i[1] == "a"),
        "select star": ("SELECT * FROM t JOIN u ON t.a = u.k",
                        lambda o, i: o + i, lambda o, i: True),
    }

    @pytest.mark.parametrize("shape", list(CONCATENATING))
    @given(t=t_rows, u=u_rows)
    @settings(max_examples=60, deadline=None)
    def test_other_shapes_keep_the_concatenating_join(self, shape, t, u):
        sql, pick, where = self.CONCATENATING[shape]
        engine, _ = load(t, u, (("u", "k", "btree"),))
        plan = engine.explain(sql)
        assert "IndexNLJoin(inner=u as u on k)" in plan and "inner rows" not in plan
        assert engine.execute(sql).rows == self.nested_loop(engine, pick, where)


class TestDocumentedDeviations:
    """What mini-SQL answers differently from SQLite, on purpose."""

    @pytest.fixture()
    def engines(self):
        return load([(0, 7, 0.5, "a"), (1, -7, None, None)], [], ())

    def test_slash_is_true_division_where_sqlite_truncates_integers(self, engines):
        engine, reference = engines
        assert engine.execute("SELECT a / 2 AS half FROM t WHERE id = 0").rows == [(3.5,)]
        assert reference.execute("SELECT a / 2 FROM t WHERE id = 0").fetchone() == (3,)

    def test_modulo_takes_the_divisors_sign_where_sqlite_takes_the_dividends(self, engines):
        engine, reference = engines
        assert engine.execute("SELECT a % 3 AS rest FROM t WHERE id = 1").rows == [(2,)]
        assert reference.execute("SELECT a % 3 FROM t WHERE id = 1").fetchone() == (-1,)

    def test_dividing_by_zero_raises_where_sqlite_answers_null(self, engines):
        engine, reference = engines
        for operator in "/%":
            with pytest.raises(SQLExecutionError, match="by zero"):
                engine.execute(f"SELECT a {operator} 0 FROM t")
            assert reference.execute(f"SELECT a {operator} 0 FROM t").fetchall() == [(None,), (None,)]

    def test_a_left_join_is_refused_where_sqlite_pads_with_null(self):
        # Once accepted and run as an inner join: it silently lost (2, None).
        engine, reference = load([(1, None, None, None), (2, None, None, None)], [(1, "a")], ())
        sql = "SELECT t.id, label FROM t {} JOIN u ON t.id = u.k"
        assert reference.execute(sql.format("LEFT")).fetchall() == [(1, "a"), (2, None)]
        with pytest.raises(SQLSyntaxError, match="only inner joins"):
            engine.execute(sql.format("LEFT"))
        assert engine.execute(sql.format("INNER")).rows == [(1, "a")]
        assert reference.execute(sql.format("INNER")).fetchall() == [(1, "a")]
