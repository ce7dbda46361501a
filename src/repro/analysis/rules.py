"""The built-in repolint rule pack: the ROADMAP's invariants as AST checks.

Rule ids (see ``README.md`` in this package for the full contract):

``factory-only``
    Serving endpoints come from :func:`repro.serving.build_service`; no
    direct ``KyrixBackend(...)`` / ``ClusterRouter(...)`` construction
    outside ``src/repro/serving/`` and ``src/repro/cluster/``.
``fault-seam``
    Tests simulate failures through :mod:`repro.serving.faults` — never by
    monkeypatching serving/cluster/net internals.
``lock-discipline``
    A class that creates ``self._lock`` must mutate its shared attributes
    inside ``with self._lock:`` (lexically), in every method but
    ``__init__``.
``span-discipline``
    Durations are measured with monotonic clocks through the tracer; bare
    ``time.time()`` is wall-clock and forbidden, and ``Tracer`` instances
    outside :mod:`repro.telemetry` bypass the configured pipeline.  The
    package never constructs a ``VirtualClock``: every ``*_ms`` it reports
    is measured, and the clock is what tests inject.
``collector-state``
    A library does not change process-wide cycle-collector state: no call
    to the ``gc`` module's ``freeze`` / ``unfreeze`` / ``disable`` /
    ``set_threshold`` anywhere under ``src/``.
``edge-rows``
    Rows stay tuples below the edge: ``to_dicts()`` (a dict per row) is called
    only by the HTTP server, the protocol and precompute.
``protocol-drift``
    A dataclass with both a serializer (``to_dict``/``to_json``) and a
    deserializer (``from_dict``/``from_json``) must mention every field in
    each, unless the method is blanket (``asdict(self)`` / ``cls(**...)``).
    Standalone codec modules registered in ``_CODEC_COMPANIONS`` (the
    binary columnar codec) must likewise mention every field of the
    sibling protocol dataclasses they encode, in both directions — a field
    added to ``DataRequest``/``DataResponse`` without a matching codec
    update fails the lint instead of silently dropping off the binary
    wire.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Checker, Finding, ModuleSource, register

_ENDPOINT_CLASSES = ("KyrixBackend", "ClusterRouter")
_FACTORY_ALLOWED_PREFIXES = ("src/repro/serving/", "src/repro/cluster/")
_FAULT_SEAM_MODULES = ("serving", "cluster", "net")
_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}
#: ``gc`` functions that switch collector state for the whole process.
_COLLECTOR_SWITCHES = {"freeze", "unfreeze", "disable", "set_threshold"}
#: Where a row may become a dictionary: the HTTP edge, the JSON encoding, precompute.
_EDGE_ROWS_ALLOWED = tuple(f"src/repro/{where}" for where in (
    "net/protocol.py", "server/http_server.py", "server/indexer.py"))
_SERIALIZERS = ("to_dict", "to_json")
_DESERIALIZERS = ("from_dict", "from_json")


def _call_name(func: ast.expr) -> str | None:
    """The trailing name of a call target: ``Foo(...)`` and
    ``pkg.mod.Foo(...)`` both yield ``"Foo"``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` as a string, or ``None`` for non-name expressions."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> fully qualified imported name, for resolving what a
    bare identifier in the module refers to."""
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                mapping[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


def _is_internal_target(qualified: str) -> bool:
    """True when a dotted path reaches into the protected subsystems."""
    for module in _FAULT_SEAM_MODULES:
        prefix = f"repro.{module}"
        if qualified == prefix or qualified.startswith(prefix + "."):
            return True
    return False


class _ZonedCallChecker(Checker):
    """Calls to ``names`` in files under ``scope`` but outside ``allowed``."""

    names: tuple[str, ...] = ()
    allowed: tuple[str, ...] = ()
    scope = ""
    #: The finding's text; ``{name}`` is the called name.
    message = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        path = module.rel_path
        if module.tree is None or not path.startswith(self.scope) or path.startswith(self.allowed):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and (name := _call_name(node.func)) in self.names:
                yield self.finding(module, node.lineno, self.message.format(name=name))


@register
class FactoryOnlyChecker(_ZonedCallChecker):
    """Direct endpoint construction outside the sanctioned zones."""

    rule = "factory-only"
    description = (
        "serving endpoints must come from serving.build_service; no direct "
        "KyrixBackend/ClusterRouter construction outside serving/ and cluster/"
    )
    names = _ENDPOINT_CLASSES
    allowed = _FACTORY_ALLOWED_PREFIXES
    message = "direct {name}(...) construction; build endpoints with repro.serving.build_service"


@register
class EdgeRowsChecker(_ZonedCallChecker):
    """Row dictionaries built between the engine and the edge."""

    rule = "edge-rows"
    description = "rows stay tuples below the edge: only the edge (http_server, JSON) calls to_dicts()"
    names = ("to_dicts",)
    allowed = _EDGE_ROWS_ALLOWED
    scope = "src/"
    message = (
        "{name}() builds a dictionary per row below the edge; hand the batch "
        "(names + row tuples) on and let the edge read it"
    )


@register
class FaultSeamChecker(Checker):
    """Monkeypatching serving/cluster/net internals from tests."""

    rule = "fault-seam"
    description = (
        "tests simulate failures through repro.serving.faults, not by "
        "monkeypatching serving/cluster/net internals"
    )

    _PATCH_METHODS = {"setattr", "delattr", "setitem", "delitem"}

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.rel_path.startswith("tests/"):
            return
        tree = module.tree
        if tree is None:
            return
        imports = _import_map(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = self._patched_target(node, imports)
            if target is not None:
                yield self.finding(
                    module,
                    node.lineno,
                    f"monkeypatching internal {target!r}; simulate failures "
                    "through repro.serving.faults instead",
                )

    def _patched_target(
        self, call: ast.Call, imports: dict[str, str]
    ) -> str | None:
        """The internal dotted path a patching call reaches into, if any."""
        func = call.func
        # monkeypatch.setattr(...) / monkeypatch.delattr(...)
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self._PATCH_METHODS
            and isinstance(func.value, ast.Name)
            and "monkeypatch" in func.value.id
        ):
            return self._resolve_first_arg(call, imports)
        # mock.patch("...") / patch("...") / patch.object(X, ...)
        name = _dotted_name(func)
        if name is not None:
            tail = name.split(".")
            if tail[-1] == "patch" or tail[-2:] == ["patch", "object"]:
                return self._resolve_first_arg(call, imports)
        return None

    def _resolve_first_arg(
        self, call: ast.Call, imports: dict[str, str]
    ) -> str | None:
        if not call.args:
            return None
        first = call.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value if _is_internal_target(first.value) else None
        dotted = _dotted_name(first)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        qualified = imports.get(root, root) + (f".{rest}" if rest else "")
        return qualified if _is_internal_target(qualified) else None


def _flatten_targets(targets: list[ast.expr]) -> Iterator[ast.expr]:
    """Every name, attribute and subscript an assignment writes, looking
    through tuple / list unpacking (``sock, self._sock = ...``) and
    starred targets."""
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flatten_targets(target.elts)
        elif isinstance(target, ast.Starred):
            yield from _flatten_targets([target.value])
        else:
            yield target


@register
class LockDisciplineChecker(Checker):
    """Shared-attribute writes outside the class's own lock."""

    rule = "lock-discipline"
    description = (
        "classes creating self._lock-style locks must mutate shared "
        "attributes inside `with self.<lock>:` blocks"
    )

    _CONSTRUCTORS = {"__init__", "__new__", "__post_init__"}

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        tree = module.tree
        if tree is None:
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleSource, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        guards = self._guard_attributes(cls)
        if not guards:
            return
        for item in cls.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name not in self._CONSTRUCTORS
            ):
                yield from self._check_method(module, cls, item, guards)

    def _guard_attributes(self, cls: ast.ClassDef) -> set[str]:
        """Attribute names holding locks created by this class: assignments
        of ``threading.Lock()``/``RLock()``/``Condition()`` (or re-exports)
        to ``self.<name>``."""
        guards: set[str] = set()
        for node in ast.walk(cls):
            value: ast.expr | None = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None or not isinstance(value, ast.Call):
                continue
            if _call_name(value.func) not in _LOCK_FACTORIES:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    guards.add(target.attr)
        return guards

    def _check_method(
        self,
        module: ModuleSource,
        cls: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        guards: set[str],
    ) -> Iterator[Finding]:
        findings: list[Finding] = []

        def is_guard_expr(expr: ast.expr) -> bool:
            return (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in guards
            )

        def self_attribute(target: ast.expr) -> str | None:
            """The dotted tail of a ``self``-rooted attribute target."""
            parts: list[str] = []
            node = target
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            while isinstance(node, ast.Subscript):
                node = node.value
                while isinstance(node, ast.Attribute):
                    parts.append(node.attr)
                    node = node.value
            if isinstance(node, ast.Name) and node.id == "self" and parts:
                return ".".join(reversed(parts))
            return None

        def visit(node: ast.stmt, guarded: bool) -> None:
            if isinstance(node, ast.With) or isinstance(node, ast.AsyncWith):
                now_guarded = guarded or any(
                    is_guard_expr(item.context_expr) for item in node.items
                )
                for child in node.body:
                    visit(child, now_guarded)
                return
            if not guarded:
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    if getattr(node, "value", None) is not None:
                        targets = [node.target]
                for target in _flatten_targets(targets):
                    attribute = self_attribute(target)
                    if attribute is not None and attribute not in guards:
                        findings.append(
                            self.finding(
                                module,
                                node.lineno,
                                f"{cls.name}.{method.name} writes "
                                f"self.{attribute} outside `with self.<lock>:` "
                                f"(guards: {', '.join(sorted(guards))})",
                            )
                        )
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    visit(child, guarded)

        for statement in method.body:
            visit(statement, False)
        yield from findings


@register
class SpanDisciplineChecker(Checker):
    """Wall-clock timing, out-of-band tracers and a clock of the package's own."""

    rule = "span-discipline"
    description = (
        "durations go through Tracer spans / monotonic clocks; no bare "
        "time.time(), no Tracer() outside repro.telemetry, no "
        "VirtualClock() under src/"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        tree = module.tree
        if tree is None:
            return
        time_aliases = self._time_time_aliases(tree)
        in_src = module.rel_path.startswith("src/repro/")
        in_telemetry = module.rel_path.startswith("src/repro/telemetry/")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if self._is_time_time(node.func, time_aliases):
                yield self.finding(
                    module,
                    node.lineno,
                    "bare time.time() is wall-clock; measure durations with "
                    "time.monotonic()/perf_counter() or a Tracer span",
                )
            elif (
                in_src
                and not in_telemetry
                and _call_name(node.func) == "Tracer"
            ):
                yield self.finding(
                    module,
                    node.lineno,
                    "direct Tracer() construction bypasses the configured "
                    "pipeline; use repro.telemetry.get_tracer()",
                )
            elif in_src and _call_name(node.func) == "VirtualClock":
                yield self.finding(
                    module,
                    node.lineno,
                    "VirtualClock() under src/ is a second, modelled clock; "
                    "measure with time.perf_counter() and let tests, examples "
                    "and benchmarks inject the clock",
                )

    @staticmethod
    def _time_time_aliases(tree: ast.Module) -> set[str]:
        """Local names bound to ``time.time`` via ``from time import ...``."""
        aliases: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "time":
                        aliases.add(alias.asname or alias.name)
        return aliases

    @staticmethod
    def _is_time_time(func: ast.expr, aliases: set[str]) -> bool:
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            return True
        return isinstance(func, ast.Name) and func.id in aliases


@register
class CollectorStateChecker(Checker):
    """Library code switching the process-wide cycle collector."""

    rule = "collector-state"
    description = (
        "a library does not change process-wide collector state: no gc "
        "freeze/unfreeze/disable/set_threshold call under src/"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        tree = module.tree
        if tree is None or not module.rel_path.startswith("src/"):
            return
        imports = _import_map(tree)
        for node in ast.walk(tree):
            dotted = _dotted_name(node.func) if isinstance(node, ast.Call) else None
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            qualified = imports.get(head, head) + ("." + rest if rest else "")
            owner, _, function = qualified.rpartition(".")
            if owner == "gc" and function in _COLLECTOR_SWITCHES:
                yield self.finding(
                    module,
                    node.lineno,
                    f"{qualified}() changes collector state for the whole process; "
                    "keep the served data out of the collector's sight instead "
                    "(packed arrays, untracked values)",
                )


#: Standalone codec modules that re-encode a *sibling* module's protocol
#: dataclasses: rel_path -> ((sibling file, class name, function names), ...).
#: Each listed module-level function must mention every field of the named
#: dataclass, so adding a field to the protocol without updating the binary
#: codec fails the lint instead of silently dropping off the wire.
_CODEC_COMPANIONS: dict[str, tuple[tuple[str, str, tuple[str, ...]], ...]] = {
    "src/repro/net/columnar.py": (
        ("protocol.py", "DataRequest", ("_pack_request", "_unpack_request")),
        ("protocol.py", "DataResponse", ("encode_response", "decode_response")),
    ),
}


@register
class ProtocolDriftChecker(Checker):
    """Dataclass fields missing from their wire-codec methods."""

    rule = "protocol-drift"
    description = (
        "dataclasses with to_dict/to_json and from_dict/from_json must "
        "mention every field in both directions (or serialize blanket); "
        "registered codec modules must cover their companion dataclasses"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.rel_path.startswith("src/"):
            return
        tree = module.tree
        if tree is None:
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and self._is_dataclass(node):
                yield from self._check_dataclass(module, node)
        yield from self._check_codec_module(module, tree)

    @staticmethod
    def _is_dataclass(cls: ast.ClassDef) -> bool:
        for decorator in cls.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if _call_name(target) == "dataclass" or (
                isinstance(target, ast.Name) and target.id == "dataclass"
            ):
                return True
        return False

    def _check_dataclass(
        self, module: ModuleSource, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = {
            item.name: item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        serializers = [methods[name] for name in _SERIALIZERS if name in methods]
        deserializers = [methods[name] for name in _DESERIALIZERS if name in methods]
        if not serializers or not deserializers:
            return
        fields = self._field_names(cls)
        if not fields:
            return
        for method in serializers + deserializers:
            if self._is_blanket(method):
                continue
            covered = self._covered_names(method)
            for field_name in fields:
                if field_name not in covered:
                    yield self.finding(
                        module,
                        method.lineno,
                        f"{cls.name}.{method.name} omits field "
                        f"{field_name!r}; wire codecs must cover every "
                        "dataclass field",
                    )

    def _check_codec_module(
        self, module: ModuleSource, tree: ast.Module
    ) -> Iterator[Finding]:
        companions = _CODEC_COMPANIONS.get(module.rel_path)
        if not companions:
            return
        functions = {
            node.name: node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for sibling_name, class_name, function_names in companions:
            fields = self._sibling_fields(module, sibling_name, class_name)
            if not fields:
                continue
            for function_name in function_names:
                function = functions.get(function_name)
                if function is None:
                    yield self.finding(
                        module,
                        1,
                        f"codec module must define {function_name}() "
                        f"covering every {class_name} field",
                    )
                    continue
                covered = self._covered_names(function)
                for field_name in fields:
                    if field_name not in covered:
                        yield self.finding(
                            module,
                            function.lineno,
                            f"{function_name} omits {class_name} field "
                            f"{field_name!r}; the binary codec must cover "
                            "every protocol dataclass field",
                        )

    def _sibling_fields(
        self, module: ModuleSource, sibling_name: str, class_name: str
    ) -> list[str]:
        """Field names of ``class_name`` in a sibling module on disk.

        Returns ``[]`` when the sibling cannot be read or parsed (e.g. the
        virtual paths used by rule-test fixtures), which skips the check
        rather than fabricating findings.
        """
        try:
            text = (module.path.parent / sibling_name).read_text(encoding="utf-8")
            tree = ast.parse(text)
        except (OSError, SyntaxError, ValueError):
            return []
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                return self._field_names(node)
        return []

    @staticmethod
    def _field_names(cls: ast.ClassDef) -> list[str]:
        names: list[str] = []
        for item in cls.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                annotation = item.annotation
                if (
                    isinstance(annotation, ast.Subscript)
                    and _call_name(annotation.value) == "ClassVar"
                ) or _call_name(annotation) == "ClassVar":
                    continue
                if not item.target.id.startswith("_"):
                    names.append(item.target.id)
        return names

    @staticmethod
    def _is_blanket(method: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        """True for methods that serialize every field structurally —
        ``asdict(self)``, ``vars(self)``, ``self.__dict__``,
        ``cls(**mapping)``, ``loader(cls, mapping)`` (a helper handed the
        class itself can only walk its ``fields``) — or delegate to a
        sibling codec (``json.dumps(self.to_dict())``,
        ``cls.from_dict(...)``), whose coverage is checked on the sibling
        itself."""
        siblings = set(_SERIALIZERS) | set(_DESERIALIZERS)
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                name = _call_name(node.func)
                if name in {"asdict", "vars"}:
                    return True
                if name in siblings and name != method.name:
                    return True
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "cls"
                    and any(keyword.arg is None for keyword in node.keywords)
                ):
                    return True
                if any(
                    isinstance(arg, ast.Name) and arg.id == "cls"
                    for arg in node.args
                ):
                    return True
            if isinstance(node, ast.Attribute) and node.attr == "__dict__":
                return True
        return False

    @staticmethod
    def _covered_names(method: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        """String literals plus explicit keyword names used in the method —
        the names a hand-rolled codec mentions."""
        covered: set[str] = set()
        for node in ast.walk(method):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                covered.add(node.value)
            elif isinstance(node, ast.Call):
                covered.update(
                    keyword.arg for keyword in node.keywords if keyword.arg
                )
            elif isinstance(node, ast.Attribute):
                covered.add(node.attr)
        return covered
