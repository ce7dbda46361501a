"""Differential property tests: mini-SQL against stdlib ``sqlite3``.

Hypothesis generates two small tables (INTEGER / FLOAT / TEXT columns with
NULLs) and queries inside the grammar mini-SQL supports; both engines load
the same rows and must give the same answer -- as a list under ``ORDER BY``
on a total order, as a multiset otherwise.

Where mini-SQL is *meant* to differ from SQLite the difference is pinned by
its own assertion in :class:`TestDocumentedDeviations`, and the generator
stays clear of it: ``/`` is true division, ``%`` takes the divisor's sign,
dividing by zero raises, and ``ORDER BY`` sees the projected columns only.

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

from repro.errors import SQLExecutionError
from repro.minisql import SQLEngine
from repro.storage.database import Database

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

INDEX_CHOICES = [(), (("t", "a", "btree"),), (("t", "id", "btree"),), (("u", "k", "btree"),),
                 (("t", "a", "btree"), ("u", "k", "btree"))]


def load(t: list[tuple], u: list[tuple], indexes: tuple) -> tuple[SQLEngine, sqlite3.Connection]:
    database = Database()
    database.create_and_load("t", [("id", "int"), ("a", "int"), ("f", "float"), ("s", "text")], t)
    database.create_and_load("u", [("k", "int"), ("label", "text")], u)
    for number, (table, column, kind) in enumerate(indexes):
        database.table(table).create_index(f"ix{number}", column, kind)
    reference = sqlite3.connect(":memory:")
    reference.execute("CREATE TABLE t (id INTEGER, a INTEGER, f REAL, s TEXT)")
    reference.execute("CREATE TABLE u (k INTEGER, label TEXT)")
    reference.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", t)
    reference.executemany("INSERT INTO u VALUES (?, ?)", u)
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
directions = st.sampled_from(["", " DESC"])

#: ``(sql, ordered)`` pairs; ``ordered`` says the answer is a list, not a multiset.
queries = st.one_of(
    st.tuples(projections, where()).map(lambda p: (f"SELECT {p[0]} FROM t{p[1]}", False)),
    st.tuples(
        st.sampled_from(["a", "f", "s"]), where(), directions, directions,
        st.integers(0, 6), st.integers(0, 4),
    ).map(lambda p: (
        f"SELECT id, {p[0]} AS x, a FROM t{p[1]} ORDER BY x{p[2]}, id{p[3]} LIMIT {p[4]} OFFSET {p[5]}",
        True,
    )),
    # The key-probe shape: an IN-list (repeats allowed) on a possibly indexed column.
    st.tuples(
        st.sampled_from(["a", "id"]), st.lists(int_literals, min_size=2, max_size=3),
        st.one_of(st.just(""), predicates().map(lambda p: f" AND {p}")),
    ).map(lambda p: (f"SELECT id, a, s FROM t WHERE {p[0]} IN ({', '.join(p[1])}){p[2]}", False)),
    st.tuples(where("t."), st.sampled_from(["t.a = u.k", "u.k = t.id"])).map(lambda p: (
        f"SELECT t.id, t.s, u.k, u.label FROM t JOIN u ON {p[1]}{p[0]}", False,
    )),
    st.tuples(st.sampled_from(["a", "s", "a, s"]), where()).map(lambda p: (
        f"SELECT {p[0]}, count(*) AS n, count(f) AS nf, sum(f) AS sf, sum(a) AS sa, "
        f"min(s) AS lo, max(id) AS hi, avg(f) AS mean FROM t{p[1]} GROUP BY {p[0]}",
        False,
    )),
    where().map(lambda w: (
        f"SELECT count(*), count(s), sum(a), min(f), max(s), avg(a) FROM t{w}", False,
    )),
    st.tuples(st.sampled_from(["a", "s", "a, s", "f, a"]), where()).map(lambda p: (
        f"SELECT DISTINCT {p[0]} FROM t{p[1]}", False,
    )),
)


def normalised(rows, ordered: bool) -> list:
    """Rows with floats rounded and NULLs made sortable; sorted unless ordered."""
    def cell(value):
        if value is None:
            return (0, 0)
        return (1, round(value, 9) if isinstance(value, float) else value)

    cells = [tuple(cell(value) for value in row) for row in rows]
    return cells if ordered else sorted(cells, key=repr)


class TestMiniSQLAgreesWithSQLite:
    @given(t_rows, u_rows, st.sampled_from(INDEX_CHOICES), st.lists(queries, min_size=1, max_size=5))
    @settings(max_examples=400, deadline=None)
    def test_select_answers_match(self, t, u, indexes, statements):
        engine, reference = load(t, u, indexes)
        for sql, ordered in statements:
            ours = engine.execute(sql)
            theirs = reference.execute(sql).fetchall()
            assert normalised(ours.rows, ordered) == normalised(theirs, ordered), sql
            assert len(ours.columns) == (len(theirs[0]) if theirs else len(ours.columns))

    @given(
        t_rows,
        st.sampled_from(INDEX_CHOICES[:3]),
        st.lists(
            st.lists(st.tuples(st.integers(100, 103), small_ints), min_size=1, max_size=3).map(
                lambda rows: "INSERT INTO t VALUES " + ", ".join(
                    f"({i}, {'null' if a is None else a}, 1.5, 'n')" for i, a in rows
                )
            ),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_inserts_leave_the_same_table(self, t, indexes, statements):
        engine, reference = load(t, [], indexes)
        for sql in statements:
            assert engine.execute(sql).rowcount == reference.execute(sql).rowcount, sql
            ours = engine.execute("SELECT * FROM t")
            theirs = reference.execute("SELECT * FROM t").fetchall()
            assert normalised(ours.rows, False) == normalised(theirs, False), sql
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
    parameterised("SELECT a, count(*) AS n, sum(f) AS sf FROM t WHERE id > ? GROUP BY a", int_values),
    parameterised("SELECT id, f AS x FROM t WHERE a <> ? ORDER BY x DESC, id LIMIT 4", int_values),
)

JOIN_INDEXES = [(("u", "k", "btree"), ("t", "id", "btree"))]


class TestPreparedStatementsAgreeWithSQLite:
    @given(t_rows, u_rows, st.sampled_from(INDEX_CHOICES + JOIN_INDEXES),
           st.lists(prepared_queries, min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_bound_answers_match(self, t, u, indexes, statements):
        engine, reference = load(t, u, indexes)
        for sql, value_sets in statements:
            ordered = "ORDER BY" in sql
            statement = engine.prepare(sql)
            for values in value_sets:
                ours = engine.execute(statement.bind(*values))
                theirs = reference.execute(sql, values).fetchall()
                assert normalised(ours.rows, ordered) == normalised(theirs, ordered), (sql, values)

    @given(t_rows, st.lists(st.tuples(st.integers(100, 103), key_values, word_values), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_bound_inserts_leave_the_same_table(self, t, changes):
        engine, reference = load(t, [], (("t", "a", "btree"),))
        sql = "INSERT INTO t VALUES (?, ?, 0.5, ?)"
        insert, probe = engine.prepare(sql), engine.prepare("SELECT id, s FROM t WHERE a = ?")
        for values in changes:
            ours = engine.execute(insert.bind(*values))
            assert ours.rowcount == reference.execute(sql, values).rowcount, values
            rows = engine.execute("SELECT * FROM t").rows
            assert normalised(rows, False) == normalised(reference.execute("SELECT * FROM t").fetchall(), False)
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
    """`IndexNLJoin` probes and fetches in one batch; the loop it replaced --
    one ``Table.lookup_key`` per outer row -- is the reference, order included."""

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
            for _, inner_row in inner.lookup_key("k", outer_row[1])  # absent: no rows; repeated: all
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


class TestDocumentedDeviations:
    """What mini-SQL answers differently from SQLite, on purpose."""

    @pytest.fixture()
    def engines(self):
        return load([(0, 7, 0.5, "a"), (1, -7, None, None)], [], ())

    def test_slash_is_true_division_where_sqlite_truncates_integers(self, engines):
        engine, reference = engines
        assert engine.execute("SELECT a / 2 FROM t WHERE id = 0").scalar() == 3.5
        assert reference.execute("SELECT a / 2 FROM t WHERE id = 0").fetchone() == (3,)

    def test_modulo_takes_the_divisors_sign_where_sqlite_takes_the_dividends(self, engines):
        engine, reference = engines
        assert engine.execute("SELECT a % 3 FROM t WHERE id = 1").scalar() == 2
        assert reference.execute("SELECT a % 3 FROM t WHERE id = 1").fetchone() == (-1,)

    def test_dividing_by_zero_raises_where_sqlite_answers_null(self, engines):
        engine, reference = engines
        for operator in "/%":
            with pytest.raises(SQLExecutionError, match="by zero"):
                engine.execute(f"SELECT a {operator} 0 FROM t")
            assert reference.execute(f"SELECT a {operator} 0 FROM t").fetchall() == [(None,), (None,)]

    def test_order_by_sees_only_projected_columns(self, engines):
        engine, reference = engines
        with pytest.raises(SQLExecutionError, match="unknown column reference: 'a'"):
            engine.explain("SELECT id FROM t ORDER BY a")
        assert reference.execute("SELECT id FROM t ORDER BY a").fetchall() == [(1,), (0,)]
        assert engine.execute("SELECT id, a FROM t ORDER BY a").rows == [(1, -7), (0, 7)]
