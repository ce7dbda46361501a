"""Data transforms: the "data needed for the layer".

The paper (Section 2.1) specifies a layer's data as "a SQL query to a DBMS
along with a transform function postprocessing the query result".  A
:class:`Transform` bundles exactly that: a mini-SQL query, an optional
post-processing callable, and the names of the columns it produces.

Transforms can also be flagged *separable* (Section 3.2): when the x/y
placement of an object is directly a raw data attribute (or a simple scaling
of one), the backend can skip placement precomputation and query the raw
table's spatial index directly.  ``x_column`` / ``y_column`` and the optional
scale factors describe that case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..errors import SpecError

#: Signature of a post-processing function: one input row dict -> output row dict.
TransformFunc = Callable[[dict[str, Any]], dict[str, Any]]

#: The identity transform used by empty/legend layers.
EMPTY_TRANSFORM_ID = "empty"


@dataclass
class Transform:
    """A named data transform feeding one or more layers.

    Parameters
    ----------
    transform_id:
        Identifier referenced by layers (``Layer("stateMapTrans", ...)``).
    query:
        A mini-SQL SELECT against the application's database.  Empty for
        static layers that render without data (e.g. legends).
    transform_func:
        Optional Python callable applied to every query-result row.  The
        Kyrix paper lets developers express this with D3/Vega; here any
        ``dict -> dict`` callable works.
    columns:
        Names of the columns produced after post-processing.  When empty,
        the query's output columns are used as-is.
    separable:
        True when object placement is a direct (possibly scaled) copy of raw
        data attributes, letting the backend skip placement precomputation.
    x_column / y_column:
        The raw attributes holding the x / y placement for separable
        transforms.
    x_scale / y_scale:
        Constant factors applied to ``x_column`` / ``y_column`` for the
        "simple scaling of raw data attributes" separable case.
    """

    transform_id: str
    query: str = ""
    transform_func: TransformFunc | None = None
    columns: tuple[str, ...] = ()
    separable: bool = False
    x_column: str | None = None
    y_column: str | None = None
    x_scale: float = 1.0
    y_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.transform_id:
            raise SpecError("transform_id must be non-empty")
        if self.separable and (not self.x_column or not self.y_column):
            raise SpecError(
                f"transform {self.transform_id!r}: separable transforms must name "
                "x_column and y_column"
            )
        self.columns = tuple(self.columns)

    @property
    def is_empty(self) -> bool:
        """True for the data-less transform used by static legend layers."""
        return not self.query

    def apply(self, row: dict[str, Any]) -> dict[str, Any]:
        """Run the post-processing function on one row (identity if none)."""
        if self.transform_func is None:
            return dict(row)
        result = self.transform_func(dict(row))
        if not isinstance(result, dict):
            raise SpecError(
                f"transform {self.transform_id!r}: transform_func must return a dict, "
                f"got {type(result).__name__}"
            )
        return result

    @classmethod
    def empty(cls) -> "Transform":
        """The canonical empty transform (``transforms.emptyTransform``)."""
        return cls(transform_id=EMPTY_TRANSFORM_ID, query="")
