"""DataSource protocol and capability descriptions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.errors import CapabilityError, SourceError
from repro.common.relation import Relation
from repro.common.schema import RelSchema
from repro.engine.physical import pick_columns
from repro.netsim.network import WireFormat
from repro.sql.ast import Select, Star
from repro.sql.shape import Bound, resolved
from repro.storage.stats import TableStats
from repro.wrappers.dialects import Dialect
from repro.wrappers.pushability import statement_reasons

#: A pseudo-dialect for sources that can only be scanned in full.
SCAN_ONLY = Dialect(
    name="scan_only",
    fidelity="scan_only",
    supported_predicates=frozenset(),
    supported_functions=frozenset(),
    supports_join=False,
    supports_aggregate=False,
    supports_sort_limit=False,
    supports_arithmetic=False,
)


@dataclass
class SourceCapabilities:
    """Everything the federated planner knows about a source.

    `per_query_overhead_s` is the fixed cost of one component query
    (connection + parse + admission); `time_per_cost_unit_s` converts the
    local cost model's units into simulated seconds, so a slow source can be
    modeled by raising it. `allows_external_queries` models Bitton's
    carefully-tuned production systems whose administrators "would not even
    consider" federated access — the advisor treats such sources as
    warehouse-only.
    """

    dialect: Dialect
    wire_format: WireFormat = WireFormat.BINARY
    per_query_overhead_s: float = 0.005
    time_per_cost_unit_s: float = 2e-6
    allows_external_queries: bool = True
    #: table -> column that must be bound (by a literal or a join key) before
    #: the source will answer; names are case-normalized at construction
    binding_patterns: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.binding_patterns = {
            table.lower(): column.lower()
            for table, column in self.binding_patterns.items()
        }

    def required_binding(self, table: str) -> Optional[str]:
        return self.binding_patterns.get(table.lower())


class DataSource:
    """Abstract data source: a named site exporting tables.

    Component queries (`execute_select`) are expressed against the source's
    *local* table names; the federation catalog handles global naming.
    """

    def __init__(self, name: str, capabilities: SourceCapabilities):
        self.name = name
        self.capabilities = capabilities

    # -- schema ------------------------------------------------------------------

    def table_names(self) -> list[str]:
        raise NotImplementedError

    def schema_of(self, table: str) -> RelSchema:
        """Unqualified schema of a local table."""
        raise NotImplementedError

    def stats_of(self, table: str) -> Optional[TableStats]:
        """Statistics if the source exposes them (may be None)."""
        return None

    def estimated_rows(self, table: str) -> float:
        stats = self.stats_of(table)
        return float(stats.row_count) if stats is not None else 1000.0

    # -- execution ----------------------------------------------------------------

    def execute_select(self, stmt: Select, metrics=None) -> Relation:
        """Run a component query: a `Select`, or a prepared plan's statement
        and its values (`repro.sql.shape.Bound`, which reads as the statement
        it stands for). Raises CapabilityError if unsupported.

        Implementations must call `self._account(metrics, seconds)` so that
        per-source query counts and simulated execution time are recorded.
        """
        raise NotImplementedError

    def _account(self, metrics, execution_seconds: float, count: int = 1) -> None:
        """Record `count` component queries, each taking `execution_seconds`
        past the per-query overhead."""
        if metrics is None:
            return
        seconds = self.capabilities.per_query_overhead_s + execution_seconds
        if count == 1:
            metrics.record_source_query(self.name, seconds)
        else:
            metrics.record_source_queries(self.name, seconds, count)

    def _check_access(self) -> None:
        if not self.capabilities.allows_external_queries:
            raise SourceError(
                f"source {self.name!r} does not admit external queries"
            )

    def _check_fits(self, stmt: Select) -> None:
        """Raise `CapabilityError` unless the capability contract lets
        `stmt` be sent here (`statement_reasons`); a `Bound` one's reasons
        name its constants."""
        reasons = statement_reasons(stmt, self.capabilities)
        if reasons:
            if isinstance(stmt, Bound):
                reasons = statement_reasons(resolved(stmt.stmt, stmt.values), self.capabilities)
            raise CapabilityError(
                f"source {self.name!r} cannot run: {stmt} ({'; '.join(reasons)})"
            )

    @staticmethod
    def _projected(stmt: Select, schema: RelSchema, rows: list) -> Relation:
        """The columns `stmt` selects of `rows` (over `schema`), gathered as a
        relational source's pick gathers them: what a source with no
        predicates is sent selects bare columns and `*` only."""
        positions: list[int] = []
        for item in stmt.items:
            if isinstance(item.expr, Star):
                positions.extend(range(len(schema)))
            else:
                positions.append(schema.index_of(item.expr.name, item.expr.qualifier))
        return Relation.adopt(schema.project(positions), pick_columns(positions)(rows))

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"
