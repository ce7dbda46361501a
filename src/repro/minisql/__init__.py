"""A small SQL layer over the embedded storage engine.

Kyrix layers declare their data with "a SQL query to a DBMS"; this package
provides the dialect and execution machinery for those queries against
:class:`repro.storage.Database`:

* :mod:`repro.minisql.lexer` / :mod:`repro.minisql.parser` — tokeniser and
  recursive-descent parser producing the AST in :mod:`repro.minisql.ast`;
* :mod:`repro.minisql.planner` — rule-based planning with index selection
  (key indexes and R-tree spatial probes) and join strategies;
* :mod:`repro.minisql.executor` — a pull-based executor returning
  :class:`~repro.minisql.executor.ResultSet` objects; statements are
  prepared once (``engine.prepare(sql)``, ``?`` placeholders) and executed
  with their values bound (``engine.execute(statement.bind(...))``).

The dialect supports SELECT (joins, WHERE, GROUP BY, ORDER BY, LIMIT,
aggregates, an ``intersects()`` spatial predicate), INSERT, CREATE TABLE and
CREATE INDEX.  Tables are built and then read: there is no UPDATE or DELETE.
"""

from .executor import BoundStatement, PreparedStatement, ResultSet, SQLEngine
from .parser import parse, parse_expression
from .planner import PlannedQuery, Planner

__all__ = [
    "BoundStatement",
    "PlannedQuery",
    "Planner",
    "PreparedStatement",
    "ResultSet",
    "SQLEngine",
    "parse",
    "parse_expression",
]
