"""The REP rule set: AST visitors encoding the repo's written invariants.

Each rule is small and single-purpose; they share the import-resolution and
scope-tracking machinery at the top of this module.  Rules REP001-REP003 and
REP005-REP007 are per-file; REP004 (trace calls reachable from pool workers)
needs the project-wide call graph collected in :mod:`repro.analysis.engine`.

Rule catalogue (see ``docs/INVARIANTS.md`` for rationale and the runtime-test
counterpart of each):

========  ==================================================================
REP001    RNG discipline: no bare ``random.*`` / ``np.random.default_rng``
          outside ``simulation/rng.py``; no ``seed + k`` arithmetic feeding
          an RNG anywhere.
REP002    Wall-clock discipline: ``time.time``/``perf_counter``/
          ``datetime.now`` only inside ``@informational_wall`` functions.
REP003    Pool-boundary pickle safety: no lambdas/local defs passed to
          ``pool_map``; ``@pool_payload`` classes must be slotted.
REP004    Trace discipline: no tracing span/record reachable from
          worker-executed functions.
REP005    Env-seam discipline: ``REPRO_*`` reads only in the designated
          resolver modules.
REP006    Metrics double-booking: a series key must not be both a
          ``register_source`` provider output and a direct counter.
REP007    Layer DAG: module-level imports must follow the layering
          (``core`` never imports ``engine``/``monitor``/``cli``/``obs``).
REP008    Shared-memory lifecycle: every ``SharedMemory(...)`` /
          ``.share()`` acquisition must be lifecycle-paired -- used as a
          context manager, explicitly ``close()``/``unlink()``ed, or
          returned to a caller that owns it.
========  ==================================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .findings import Finding

__all__ = [
    "ImportMap",
    "ModuleInfo",
    "FunctionInfo",
    "collect_module_info",
    "per_file_findings",
    "LAYER_ALLOWED",
    "RESOLVER_MODULES",
    "RNG_EXEMPT_SUFFIXES",
]

# ---------------------------------------------------------------------------
# rule configuration
# ---------------------------------------------------------------------------

#: Modules allowed to construct raw RNGs (the one blessed wrapper).
RNG_EXEMPT_SUFFIXES: Tuple[str, ...] = ("simulation/rng.py",)

#: Modules allowed to read ``REPRO_*`` environment variables (the seams).
RESOLVER_MODULES: Tuple[str, ...] = (
    "src/repro/parallel.py",
    "src/repro/obs/__init__.py",
)

_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "random.Random",
}

_WALL_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Layer DAG: which repro layers each layer may import at module level.
#: Function-local and ``TYPE_CHECKING``-guarded imports are the sanctioned
#: upward-reference patterns and are not checked.
_EVERYTHING = {
    "contracts", "topology", "obs", "parallel", "core", "routing",
    "localization", "simulation", "baselines", "monitor", "engine",
    "experiments", "analysis", "cli", "repro",
}
LAYER_ALLOWED: Dict[str, Set[str]] = {
    "contracts": set(),
    "topology": set(),
    "obs": {"contracts"},
    "parallel": {"contracts"},
    "analysis": {"contracts"},
    "core": {"contracts", "topology", "parallel"},
    "routing": {"contracts", "topology", "core"},
    "localization": {"contracts", "topology", "core", "routing"},
    "simulation": {"contracts", "topology", "routing", "core", "localization"},
    "baselines": {"contracts", "topology", "core", "routing", "simulation", "localization"},
    "monitor": {
        "contracts", "topology", "core", "routing", "simulation",
        "localization", "obs", "parallel",
    },
    "engine": {
        "contracts", "topology", "core", "routing", "simulation",
        "localization", "obs", "parallel", "monitor",
    },
    "experiments": {
        "contracts", "topology", "core", "routing", "simulation",
        "localization", "obs", "parallel", "monitor", "engine", "baselines",
    },
    "cli": set(_EVERYTHING),
    "repro": set(_EVERYTHING),  # the package root re-exports the public API
}


# ---------------------------------------------------------------------------
# shared machinery: imports, dotted-name resolution, scopes
# ---------------------------------------------------------------------------

@dataclass
class ImportMap:
    """What each local name means, judged from the module's import statements."""

    #: local alias -> dotted module ("np" -> "numpy", "_wall" -> "time")
    aliases: Dict[str, str] = field(default_factory=dict)
    #: local name -> (source module, original name) for ``from m import n``
    members: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    def resolve(self, node: ast.AST) -> Tuple[Optional[str], bool]:
        """(dotted path, import-backed?) for a Name/Attribute chain.

        ``np.random.default_rng`` -> ("numpy.random.default_rng", True);
        an unresolvable head returns the raw dotted text with False.
        """
        raw = _dotted_text(node)
        if raw is None:
            return None, False
        head, _, rest = raw.partition(".")
        if head in self.members:
            mod, orig = self.members[head]
            base = f"{mod}.{orig}"
        elif head in self.aliases:
            base = self.aliases[head]
        else:
            return raw, False
        return (f"{base}.{rest}" if rest else base), True


def _dotted_text(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_text(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _resolve_relative(module: str, is_package: bool, target: Optional[str], level: int) -> str:
    """Absolute module named by ``from <target> import ...`` at *level* dots."""
    if level == 0:
        return target or ""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: max(len(parts) - (level - 1), 0)]
    if target:
        parts = parts + target.split(".")
    return ".".join(parts)


def build_import_map(tree: ast.AST, module: str, is_package: bool) -> ImportMap:
    imports = ImportMap()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports.aliases[alias.asname] = alias.name
                else:
                    head = alias.name.partition(".")[0]
                    imports.aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            source = _resolve_relative(module, is_package, node.module, node.level)
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports.members[alias.asname or alias.name] = (source, alias.name)
    return imports


def _decorator_is(node: ast.AST, suffix: str) -> bool:
    """Does decorator *node* (possibly a Call) name ``...<suffix>``?"""
    target = node.func if isinstance(node, ast.Call) else node
    text = _dotted_text(target)
    return text is not None and (text == suffix or text.endswith("." + suffix))


class _ScopedVisitor(ast.NodeVisitor):
    """NodeVisitor that tracks the enclosing def/class stack."""

    def __init__(self) -> None:
        self.scope: List[ast.AST] = []

    def qualname(self) -> str:
        names = [getattr(node, "name", "<lambda>") for node in self.scope]
        return ".".join(names) if names else "<module>"

    def _enter(self, node: ast.AST) -> None:
        self.scope.append(node)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter(node)

    def enclosing_informational_wall(self) -> bool:
        for node in self.scope:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_decorator_is(d, "informational_wall") for d in node.decorator_list):
                    return True
        return False


def _contains_seed_name(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Name) and "seed" in sub.id.lower()
        for sub in ast.walk(node)
    )


# ---------------------------------------------------------------------------
# per-file module info (pass 1: feeds REP004's project call graph)
# ---------------------------------------------------------------------------

@dataclass
class FunctionInfo:
    """A module-level function: whom it calls, where it traces."""

    module: str
    name: str
    path: str
    calls: Set[Tuple[str, str]] = field(default_factory=set)
    trace_sites: List[Tuple[int, int, str]] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """Everything the rules need to know about one parsed file."""

    path: str  # repo-relative posix
    module: str  # dotted module name ("repro.core.pmc", "tests.test_obs")
    is_package: bool
    tree: ast.Module
    source: str
    imports: ImportMap
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: resolved (module, name) targets handed to pool_map as fn/initializer
    pool_roots: List[Tuple[str, str, int]] = field(default_factory=list)


def _is_trace_call(resolved: Optional[str], raw: Optional[str]) -> Optional[str]:
    """The trace entry point named by a call, if any."""
    for text in (resolved, raw):
        if not text:
            continue
        last = text.rsplit(".", 1)[-1]
        if text.endswith("tracing.span") or text.endswith("tracing.record"):
            return text
        if last in ("trace_span", "trace_record"):
            return text
    return None


def _call_target(
    func: ast.AST, info: "ModuleInfo"
) -> Optional[Tuple[str, str]]:
    """Resolve a call/reference to a (module, function) vertex if possible."""
    if isinstance(func, ast.Name):
        name = func.id
        if name in info.functions:
            return (info.module, name)
        if name in info.imports.members:
            mod, orig = info.imports.members[name]
            return (mod, orig)
        return None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        head = func.value.id
        if head in info.imports.aliases:
            return (info.imports.aliases[head], func.attr)
        if head in info.imports.members:
            mod, orig = info.imports.members[head]
            return (f"{mod}.{orig}", func.attr)
    return None


def collect_module_info(path: str, module: str, is_package: bool, source: str) -> ModuleInfo:
    """Parse *source* and build the pass-1 view (raises SyntaxError upward)."""
    tree = ast.parse(source, filename=path)
    imports = build_import_map(tree, module, is_package)
    info = ModuleInfo(
        path=path, module=module, is_package=is_package,
        tree=tree, source=source, imports=imports,
    )
    # Register module-level function names first so intra-module Name calls
    # resolve regardless of definition order.
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = FunctionInfo(
                module=module, name=node.name, path=path
            )
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        entry = info.functions[node.name]
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            resolved, _ = imports.resolve(sub.func)
            trace = _is_trace_call(resolved, _dotted_text(sub.func))
            if trace is not None:
                entry.trace_sites.append((sub.lineno, sub.col_offset + 1, trace))
            target = _call_target(sub.func, info)
            if target is not None:
                entry.calls.add(target)
    # pool_map roots (fn arg + initializer kwarg), wherever they occur.
    for sub in ast.walk(tree):
        if not isinstance(sub, ast.Call):
            continue
        resolved, _ = imports.resolve(sub.func)
        raw = _dotted_text(sub.func)
        if not any(
            text == "pool_map" or text.endswith(".pool_map")
            for text in (resolved, raw) if text
        ):
            continue
        candidates: List[ast.AST] = []
        if sub.args:
            candidates.append(sub.args[0])
        for keyword in sub.keywords:
            if keyword.arg == "initializer":
                candidates.append(keyword.value)
        for candidate in candidates:
            target = _call_target(candidate, info)
            if target is not None:
                info.pool_roots.append((target[0], target[1], sub.lineno))
    return info


# ---------------------------------------------------------------------------
# REP001 -- RNG discipline
# ---------------------------------------------------------------------------

class _Rep001(_ScopedVisitor):
    def __init__(self, info: ModuleInfo, findings: List[Finding]):
        super().__init__()
        self.info = info
        self.findings = findings
        self.full_check = info.path.startswith("src/") and not info.path.endswith(
            RNG_EXEMPT_SUFFIXES
        )

    def visit_Call(self, node: ast.Call) -> None:
        resolved, backed = self.info.imports.resolve(node.func)
        is_rng = backed and resolved in _RNG_CONSTRUCTORS
        is_random_mod = (
            backed
            and resolved is not None
            and resolved.startswith("random.")
            and resolved.count(".") == 1
        )
        if (is_rng or is_random_mod) and self.full_check:
            self.findings.append(
                Finding(
                    rule="REP001",
                    path=self.info.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    message=(
                        f"bare RNG construction/use {resolved!r}: route randomness "
                        "through simulation.rng.SeededStreams named streams"
                    ),
                    context=self.qualname(),
                )
            )
        # ``seed + k`` arithmetic feeding an RNG or a stream family is the
        # placement-dependent pattern PR 4 eradicated -- flagged everywhere,
        # including tests and benchmarks.
        raw = _dotted_text(node.func) or ""
        feeds_rng = (
            is_rng
            or raw.endswith("SeededStreams")
            or raw.rsplit(".", 1)[-1] in ("spawn_seed", "child", "generator", "pyrandom")
        )
        if feeds_rng:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.BinOp) and _contains_seed_name(arg):
                    self.findings.append(
                        Finding(
                            rule="REP001",
                            path=self.info.path,
                            line=arg.lineno,
                            col=arg.col_offset + 1,
                            message=(
                                "seed arithmetic feeding an RNG is placement-dependent; "
                                "use SeededStreams named streams / spawn_seed instead"
                            ),
                            context=self.qualname(),
                        )
                    )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# REP002 -- wall-clock discipline
# ---------------------------------------------------------------------------

class _Rep002(_ScopedVisitor):
    def __init__(self, info: ModuleInfo, findings: List[Finding]):
        super().__init__()
        self.info = info
        self.findings = findings

    def visit_Call(self, node: ast.Call) -> None:
        resolved, backed = self.info.imports.resolve(node.func)
        if backed and resolved in _WALL_CALLS and not self.enclosing_informational_wall():
            self.findings.append(
                Finding(
                    rule="REP002",
                    path=self.info.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    message=(
                        f"wall-clock read {resolved!r} outside an "
                        "@informational_wall function: wall time must only feed "
                        "informational outputs, never deterministic gates"
                    ),
                    context=self.qualname(),
                )
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# REP003 -- pool-boundary pickle safety
# ---------------------------------------------------------------------------

class _Rep003(_ScopedVisitor):
    def __init__(self, info: ModuleInfo, findings: List[Finding]):
        super().__init__()
        self.info = info
        self.findings = findings
        self._local_defs: List[Set[str]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        nested = {
            sub.name
            for sub in ast.walk(node)
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not node
        }
        self._local_defs.append(nested)
        self._enter(node)
        self._local_defs.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if any(_decorator_is(d, "pool_payload") for d in node.decorator_list):
            if not self._class_is_slotted(node):
                self.findings.append(
                    Finding(
                        rule="REP003",
                        path=self.info.path,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        message=(
                            f"@pool_payload class {node.name!r} is not slotted: "
                            "declare __slots__ or @dataclass(slots=True) so its "
                            "pickled form stays plain data"
                        ),
                        context=self.qualname(),
                    )
                )
        self._enter(node)

    @staticmethod
    def _class_is_slotted(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call) and _decorator_is(decorator, "dataclass"):
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "slots"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        return True
        for stmt in node.body:
            targets: List[ast.AST] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        return False

    def visit_Call(self, node: ast.Call) -> None:
        resolved, _ = self.info.imports.resolve(node.func)
        raw = _dotted_text(node.func)
        if any(
            text == "pool_map" or text.endswith(".pool_map")
            for text in (resolved, raw) if text
        ):
            candidates: List[Tuple[str, ast.AST]] = []
            if node.args:
                candidates.append(("fn", node.args[0]))
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    candidates.append(("initializer", keyword.value))
            for role, candidate in candidates:
                problem: Optional[str] = None
                if isinstance(candidate, ast.Lambda):
                    problem = "a lambda"
                elif isinstance(candidate, ast.Name) and any(
                    candidate.id in names for names in self._local_defs
                ):
                    problem = f"locally-defined function {candidate.id!r}"
                if problem is not None:
                    self.findings.append(
                        Finding(
                            rule="REP003",
                            path=self.info.path,
                            line=candidate.lineno,
                            col=candidate.col_offset + 1,
                            message=(
                                f"pool_map {role} is {problem}: only module-level "
                                "functions pickle across the pool boundary"
                            ),
                            context=self.qualname(),
                        )
                    )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# REP005 -- env-seam discipline
# ---------------------------------------------------------------------------

class _Rep005(_ScopedVisitor):
    def __init__(self, info: ModuleInfo, findings: List[Finding]):
        super().__init__()
        self.info = info
        self.findings = findings
        self.exempt = info.path in RESOLVER_MODULES

    def _flag(self, node: ast.AST, key: str) -> None:
        self.findings.append(
            Finding(
                rule="REP005",
                path=self.info.path,
                line=node.lineno,
                col=node.col_offset + 1,
                message=(
                    f"read of environment variable {key!r} outside the designated "
                    "resolver modules (parallel.py, obs/__init__.py)"
                ),
                context=self.qualname(),
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        if not self.exempt:
            resolved, backed = self.info.imports.resolve(node.func)
            if backed and resolved in ("os.getenv", "os.environ.get") and node.args:
                first = node.args[0]
                if (
                    isinstance(first, ast.Constant)
                    and isinstance(first.value, str)
                    and first.value.startswith("REPRO_")
                ):
                    self._flag(node, first.value)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if not self.exempt and isinstance(node.ctx, ast.Load):
            resolved, backed = self.info.imports.resolve(node.value)
            if backed and resolved == "os.environ":
                key = node.slice
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and key.value.startswith("REPRO_")
                ):
                    self._flag(node, key.value)
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# REP006 -- metrics double-booking
# ---------------------------------------------------------------------------

class _Rep006(_ScopedVisitor):
    """A series key must not be both a pull-source output and a direct metric.

    Statically visible collisions only: provider dict-literal keys (from a
    lambda or inline dict) vs. ``.counter("k")`` / ``.gauge`` /
    ``.histogram`` literals *within the same enclosing function* -- distinct
    functions typically act on distinct registries, so a wider scope drowns
    the rule in false positives.  The registry *sums* colliding keys at
    snapshot time, which silently double-books work attribution.
    """

    def __init__(self, info: ModuleInfo, findings: List[Finding]):
        super().__init__()
        self.info = info
        self.findings = findings
        #: enclosing qualname -> {series key: register line}
        self.source_keys: Dict[str, Dict[str, int]] = {}
        self.metric_sites: List[Tuple[str, int, int, str]] = []

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "register_source" and len(node.args) >= 2:
                self._collect_provider_keys(node.args[1], node.lineno)
            elif func.attr in ("counter", "gauge", "histogram") and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    self.metric_sites.append(
                        (first.value, node.lineno, node.col_offset + 1, self.qualname())
                    )
        self.generic_visit(node)

    def _collect_provider_keys(self, provider: ast.AST, lineno: int) -> None:
        body = provider.body if isinstance(provider, ast.Lambda) else provider
        if isinstance(body, ast.Dict):
            scope = self.source_keys.setdefault(self.qualname(), {})
            for key in body.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    scope.setdefault(key.value, lineno)

    def finish(self) -> None:
        for name, line, col, context in self.metric_sites:
            scope = self.source_keys.get(context, {})
            if name in scope:
                self.findings.append(
                    Finding(
                        rule="REP006",
                        path=self.info.path,
                        line=line,
                        col=col,
                        message=(
                            f"series {name!r} is double-booked: produced by a "
                            f"register_source provider (line {scope[name]}) "
                            "and mutated as a direct metric -- snapshot sums both"
                        ),
                        context=context,
                    )
                )


# ---------------------------------------------------------------------------
# REP007 -- layer DAG
# ---------------------------------------------------------------------------

def _layer_of(module: str) -> Optional[str]:
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return "repro"
    head = parts[1]
    return head if head in _EVERYTHING else None


def _rep007(info: ModuleInfo, findings: List[Finding]) -> None:
    layer = _layer_of(info.module)
    if layer is None or not info.path.startswith("src/"):
        return
    allowed = LAYER_ALLOWED.get(layer, set())

    def check_statements(statements: Sequence[ast.stmt]) -> None:
        for stmt in statements:
            if isinstance(stmt, ast.If):
                test = _dotted_text(stmt.test) or ""
                if test.endswith("TYPE_CHECKING"):
                    continue  # sanctioned typing-only upward reference
                check_statements(stmt.body)
                check_statements(stmt.orelse)
                continue
            if isinstance(stmt, ast.Try):
                check_statements(stmt.body)
                for handler in stmt.handlers:
                    check_statements(handler.body)
                check_statements(stmt.orelse)
                check_statements(stmt.finalbody)
                continue
            targets: List[str] = []
            if isinstance(stmt, ast.Import):
                targets = [alias.name for alias in stmt.names]
            elif isinstance(stmt, ast.ImportFrom):
                source = _resolve_relative(
                    info.module, info.is_package, stmt.module, stmt.level
                )
                if source == "repro":
                    # ``from . import contracts`` style: each name is a module
                    targets = [f"repro.{alias.name}" for alias in stmt.names]
                else:
                    targets = [source]
            for target in targets:
                target_layer = _layer_of(target)
                if target_layer is None or target_layer == layer:
                    continue
                if target_layer not in allowed:
                    findings.append(
                        Finding(
                            rule="REP007",
                            path=info.path,
                            line=stmt.lineno,
                            col=stmt.col_offset + 1,
                            message=(
                                f"layer {layer!r} must not import layer "
                                f"{target_layer!r} at module level (layer DAG); "
                                "use the contracts seam or a function-local import"
                            ),
                            context="<module>",
                        )
                    )

    check_statements(info.tree.body)


# ---------------------------------------------------------------------------
# REP008 -- shared-memory lifecycle pairing
# ---------------------------------------------------------------------------

_SHM_RELEASE_CALLS = ("close", "unlink")


def _is_shm_acquisition(node: ast.Call, info: ModuleInfo) -> bool:
    """Does this call acquire a shared-memory resource?

    Two acquisition shapes exist in the repo: constructing a
    ``multiprocessing.shared_memory.SharedMemory`` segment, and exporting an
    incidence index with the zero-argument ``.share()`` method.
    """
    resolved, _ = info.imports.resolve(node.func)
    raw = _dotted_text(node.func)
    for text in (resolved, raw):
        if text and (text == "SharedMemory" or text.endswith(".SharedMemory")):
            return True
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "share"
        and not node.args
        and not node.keywords
    )


def _rep008(info: ModuleInfo, findings: List[Finding]) -> None:
    parents: Dict[ast.AST, ast.AST] = {}
    enclosing: Dict[ast.AST, Optional[ast.AST]] = {}

    def index_tree(node: ast.AST, function: Optional[ast.AST]) -> None:
        for child in ast.iter_child_nodes(node):
            parents[child] = node
            child_fn = (
                child
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                else function
            )
            enclosing[child] = child_fn
            index_tree(child, child_fn)

    index_tree(info.tree, None)

    def scope_of(node: ast.AST) -> ast.AST:
        return enclosing.get(node) or info.tree

    def name_is_released(scope: ast.AST, name: str) -> bool:
        """``name.close()``/``name.unlink()`` or ``return name`` in scope?"""
        for sub in ast.walk(scope):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _SHM_RELEASE_CALLS
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id == name
            ):
                return True
            if (
                isinstance(sub, ast.Return)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == name
            ):
                return True
        return False

    def attribute_is_released(attr: str) -> bool:
        """Does the *module* release ``<anything>.<attr>`` somewhere?

        Attribute-held resources (``self._shm = SharedMemory(...)``) are
        released by a sibling method, so the pairing check widens to the
        whole file.
        """
        for sub in ast.walk(info.tree):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _SHM_RELEASE_CALLS
                and isinstance(sub.func.value, ast.Attribute)
                and sub.func.value.attr == attr
            ):
                return True
        return False

    def qualname_of(node: ast.AST) -> str:
        names: List[str] = []
        cursor: Optional[ast.AST] = node
        while cursor is not None and cursor is not info.tree:
            if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(cursor.name)
            cursor = parents.get(cursor)
        return ".".join(reversed(names)) if names else "<module>"

    for node in ast.walk(info.tree):
        if not (isinstance(node, ast.Call) and _is_shm_acquisition(node, info)):
            continue
        parent = parents.get(node)
        if isinstance(parent, ast.withitem):
            continue  # context-managed: lifecycle is structural
        if isinstance(parent, ast.Return):
            continue  # ownership handed to the caller
        paired = False
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
            target = parent.targets[0]
        elif isinstance(parent, ast.AnnAssign):
            target = parent.target
        else:
            target = None
        if isinstance(target, ast.Name):
            paired = name_is_released(scope_of(node), target.id)
        elif isinstance(target, ast.Attribute):
            paired = attribute_is_released(target.attr)
        if not paired:
            findings.append(
                Finding(
                    rule="REP008",
                    path=info.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    message=(
                        "shared-memory acquisition is not lifecycle-paired: "
                        "use a context manager, call close()/unlink() on it, "
                        "or return it to an owner that does"
                    ),
                    context=qualname_of(node),
                )
            )


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def per_file_findings(info: ModuleInfo) -> List[Finding]:
    """Run every per-file rule over one module (REP004 runs project-wide)."""
    findings: List[Finding] = []
    for visitor_cls in (_Rep001, _Rep002, _Rep003, _Rep005):
        visitor = visitor_cls(info, findings)
        visitor.visit(info.tree)
    rep006 = _Rep006(info, findings)
    rep006.visit(info.tree)
    rep006.finish()
    _rep007(info, findings)
    _rep008(info, findings)
    return findings
