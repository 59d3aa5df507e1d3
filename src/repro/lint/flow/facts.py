"""Per-module fact extraction for the whole-program flow analysis.

One call to :func:`extract_module_facts` turns one source file into a
:class:`ModuleFacts` — a compact, frozen, *picklable* value object with
everything the cross-file passes need: the alias-resolved import table,
top-level definitions with the references each makes, a linearized taint
IR per function, RNG fork sites, observability call-site facts, class
member tables, and the file's inline suppressions. No ``ast`` node
survives into the output, which is what allows ``repro lint --jobs N``
to extract facts in worker processes and ship them to the parent.

The taint IR is intentionally small: straight-line op lists (assign /
expression / return / order-kill) over flattened expression trees whose
atoms are variable reads, nondeterminism sources, calls, and sanitized
sub-expressions. Branches are linearized, loops are handled by a second
interpretation pass in :mod:`repro.lint.flow.taint`, and anything the
resolver cannot name statically becomes a *dynamic* call — recorded, not
guessed at.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.base import is_set_producing
from repro.lint.suppress import parse_suppressions

# --------------------------------------------------------------------------
# Policy tables: what taints, what cleans, what is an artifact.
# --------------------------------------------------------------------------

#: Resolved callable → (source kind, taint kind). ``order`` taint means the
#: *sequence* is nondeterministic (hash-salted or filesystem-dependent);
#: ``value`` taint means the value itself differs between identical runs.
TAINT_SOURCES: Dict[str, Tuple[str, str]] = {
    "time.time": ("wall_clock", "value"),
    "time.time_ns": ("wall_clock", "value"),
    "time.monotonic": ("wall_clock", "value"),
    "time.perf_counter": ("wall_clock", "value"),
    "datetime.datetime.now": ("wall_clock", "value"),
    "datetime.datetime.utcnow": ("wall_clock", "value"),
    "datetime.datetime.today": ("wall_clock", "value"),
    "datetime.date.today": ("wall_clock", "value"),
    "os.listdir": ("fs_order", "order"),
    "os.scandir": ("fs_order", "order"),
    "os.walk": ("fs_order", "order"),
    "glob.glob": ("fs_order", "order"),
    "glob.iglob": ("fs_order", "order"),
    "os.getenv": ("env", "value"),
    "os.environ.get": ("env", "value"),
    "id": ("object_id", "value"),
    "hash": ("object_id", "value"),
    "uuid.uuid1": ("wall_clock", "value"),
    "uuid.uuid4": ("global_random", "value"),
}

#: ``random.<anything>`` except these is a global-RNG source.
RANDOM_ALLOWED = {"random.Random"}

#: Builtins whose result does not depend on the argument's iteration
#: order — they kill ``order`` taint (but can never clean ``value``
#: taint: a sorted list of wall-clock stamps is still nondeterministic).
ORDER_SANITIZERS = {"sorted", "min", "max", "sum", "len", "frozenset.__len__"}

#: Resolved function callables that write run artifacts.
SINK_FUNCTIONS: Dict[str, str] = {
    "repro.data.write_dataset": "dataset-write",
    "repro.data.dataset.write_dataset": "dataset-write",
    "repro.util.storage.dump_json": "artifact-json",
    "repro.util.storage.dump_jsonl": "artifact-json",
    "json.dump": "serialized-json",
    "json.dumps": "serialized-json",
}

#: (class-name suffix, method) → sink kind, matched against resolved
#: method callees like ``repro.data.append.AppendSegmentWriter.append_rows``.
SINK_METHODS: Dict[Tuple[str, str], str] = {
    ("AppendSegmentWriter", "append_row"): "segment-append",
    ("AppendSegmentWriter", "append_rows"): "segment-append",
    ("CheckpointStore", "save"): "checkpoint",
    ("JsonlStore", "write"): "artifact-jsonl",
}

#: Metric mutators whose **label kwargs** become time-series identity.
METRIC_MUTATORS = {"inc", "observe", "set"}
METRIC_FACTORIES = {"counter", "gauge", "histogram"}

#: Marker type for variables holding a metric handle.
METRIC_TYPE = "=metric"

#: Canonical names of the labelled RNG fork primitives.
FORK_ROOTS = {
    "repro.util.rng.RngStream",
    "repro.util.rng.split_seed",
}
#: Module-local wrapper suffixes that relay (seed, *labels) to a fork.
FORK_WRAPPER_SUFFIXES = ("._hash_uniform",)
RNG_STREAM_CLASS = "repro.util.rng.RngStream"

#: Names whose resolution falls back to the builtin when not imported
#: and not defined in the module.
_KNOWN_BUILTINS = {"sorted", "min", "max", "sum", "len", "id", "hash",
                   "set", "frozenset", "list", "tuple", "dict"}

PHASE_PROGRESS_CALLS = (
    "repro.obs.phase_progress",
    "repro.obs.live.phase_progress",
)


# --------------------------------------------------------------------------
# IR value objects.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceRef:
    """One nondeterminism source occurrence."""

    kind: str    # wall_clock | global_random | fs_order | set_iter | env | object_id
    taint: str   # "value" | "order"
    line: int
    detail: str  # the resolved callable / construct, for the hop note
    col: int = 1


@dataclass(frozen=True)
class CallIR:
    """One call site, resolver output attached.

    ``callee`` is the canonical dotted target when resolution succeeded
    (module function, class constructor, or ``Class.method`` for typed
    receivers); ``None`` marks a *dynamic* call — the call graph records
    the edge as unresolved and the taint pass assumes a clean result.
    """

    callee: Optional[str]
    line: int
    col: int = 1
    args: Tuple["ExprIR", ...] = ()
    kwargs: Tuple[Tuple[Optional[str], "ExprIR"], ...] = ()
    method: Optional[str] = None   # attribute name for unresolved method calls
    starred: bool = False          # *args/**kwargs present → arg mapping unknown
    metric_chain: bool = False     # receiver is a metrics handle


@dataclass(frozen=True)
class ExprIR:
    """A flattened expression: atoms plus taint kinds killed at this level.

    Atoms are tagged tuples: ``("read", name)``, ``("src", SourceRef)``,
    ``("call", CallIR)``, ``("sub", ExprIR)`` (a sanitized sub-expression
    carrying its own ``kills``).
    """

    atoms: Tuple[Tuple, ...] = ()
    kills: Tuple[str, ...] = ()


@dataclass(frozen=True)
class OpAssign:
    targets: Tuple[str, ...]
    value: ExprIR
    line: int
    merge: bool = False  # True: augment (subscript/attr store, mutator call)


@dataclass(frozen=True)
class OpExpr:
    value: ExprIR
    line: int


@dataclass(frozen=True)
class OpReturn:
    value: Optional[ExprIR]
    line: int


@dataclass(frozen=True)
class OpKill:
    """In-place order sanitization: ``x.sort()``."""

    name: str
    kinds: Tuple[str, ...]
    line: int


@dataclass(frozen=True)
class FunctionIR:
    qualname: str            # "repro.x.f" | "repro.x.Cls.method" | "repro.x.<module>"
    lineno: int
    params: Tuple[str, ...]  # positional + kw-only, in order; methods include self
    ops: Tuple = ()
    is_method: bool = False


@dataclass(frozen=True)
class DefInfo:
    """A top-level definition and the references its body makes."""

    name: str
    kind: str       # "function" | "class" | "constant"
    line: int
    col: int
    public: bool
    decorated: bool
    refs: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ForkSite:
    """One labelled RNG fork call site."""

    line: int
    col: int
    kind: str                 # "root" (RngStream/split_seed/wrapper) | "split"
    labels: Tuple[str, ...]   # literal components; "*" for runtime-varying
    variadic: bool            # *labels relay — nothing to register here
    detail: str               # resolved callable, for messages
    line_text: str = ""


@dataclass(frozen=True)
class ObsUse:
    """One observability call-site fact (RL301/RL302 input)."""

    kind: str   # metric_literal|metric_foreign|metric_attr|metric_name|metric_other
    #         | phase_missing|phase_dynamic|phase_literal|thread_nondaemon
    line: int
    col: int
    value: str = ""       # literal / constant / module, per kind
    line_text: str = ""


@dataclass(frozen=True)
class ModuleFacts:
    """Everything the cross-file passes need to know about one file."""

    path: str
    module: str
    is_package: bool = False
    imports: Tuple[Tuple[str, str], ...] = ()      # local name → dotted target
    star_imports: Tuple[str, ...] = ()
    defs: Tuple[DefInfo, ...] = ()
    module_refs: Tuple[str, ...] = ()
    functions: Tuple[FunctionIR, ...] = ()
    fork_sites: Tuple[ForkSite, ...] = ()
    obs_uses: Tuple[ObsUse, ...] = ()
    suppressions: Tuple[Tuple[int, Tuple[str, ...]], ...] = ()
    all_names: Tuple[str, ...] = ()

    def import_map(self) -> Dict[str, str]:
        return dict(self.imports)


#: Path components that anchor a dotted module name. Lint runs may see
#: absolute paths (fixture trees under a tmp dir); anchoring on the first
#: known top-level package keeps module naming stable either way.
_MODULE_ANCHORS = ("repro", "tests", "benchmarks", "examples")


def module_name_for_path(path: str) -> str:
    """Dotted module name for a source path.

    ``src/repro/lint/base.py`` → ``repro.lint.base``;
    ``tests/test_cli.py`` → ``tests.test_cli``; package ``__init__.py``
    files name the package itself. Leading directories before the first
    anchor component (``src/``, tmp-dir prefixes) are dropped.
    """
    clean = path.replace("\\", "/")
    if clean.endswith(".py"):
        clean = clean[: -len(".py")]
    parts = [p for p in clean.split("/") if p not in ("", ".", "..")]
    for index, part in enumerate(parts):
        if part in _MODULE_ANCHORS:
            parts = parts[index:]
            break
    else:
        if parts and parts[0] == "src":
            parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else clean


# --------------------------------------------------------------------------
# Extraction.
# --------------------------------------------------------------------------


class _Extractor:
    def __init__(self, path: str, tree: ast.Module, lines: List[str]) -> None:
        self.path = path
        self.tree = tree
        self.lines = lines
        self.module = module_name_for_path(path)
        self.is_package = path.endswith("/__init__.py") or path == "__init__.py"
        self.imports: Dict[str, str] = {}
        self.star_imports: List[str] = []
        self.top_defs: Set[str] = set()
        self.fork_sites: List[ForkSite] = []
        self.obs_uses: List[ObsUse] = []
        # Per-class ``self.<attr>`` types (class name → attr → type marker).
        self.self_attr_types: Dict[str, Dict[str, str]] = {}
        # Local variable types for the function currently being flattened.
        self._var_types: Dict[str, str] = {}
        self._current_class: Optional[str] = None

    # -- driving ------------------------------------------------------------

    def extract(self) -> ModuleFacts:
        self._collect_imports()
        self._collect_top_defs()
        self._collect_self_attr_types()
        defs, module_refs, functions = self._collect_defs_and_functions()
        self._collect_obs_uses()
        suppressions = tuple(
            (line, tuple(sorted(codes)))
            for line, codes in sorted(parse_suppressions(self.lines).items())
        )
        return ModuleFacts(
            path=self.path,
            module=self.module,
            is_package=self.is_package,
            imports=tuple(sorted(self.imports.items())),
            star_imports=tuple(sorted(set(self.star_imports))),
            defs=defs,
            module_refs=module_refs,
            functions=functions,
            fork_sites=tuple(sorted(self.fork_sites,
                                    key=lambda s: (s.line, s.col))),
            obs_uses=tuple(self.obs_uses),
            suppressions=suppressions,
            all_names=self._collect_all_names(),
        )

    # -- imports ------------------------------------------------------------

    def _collect_imports(self) -> None:
        package = self.module if self.is_package else self.module.rpartition(".")[0]
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    up = package.split(".") if package else []
                    up = up[: len(up) - (node.level - 1)] if node.level > 1 else up
                    base = ".".join(up + ([node.module] if node.module else []))
                if not base:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        self.star_imports.append(base)
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}"

    def _collect_top_defs(self) -> None:
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.top_defs.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.top_defs.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                self.top_defs.add(stmt.target.id)

    def _collect_self_attr_types(self) -> None:
        for cls in self.tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            table: Dict[str, str] = {}
            for node in ast.walk(cls):
                if not (isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Call)):
                    continue
                marker = self._type_of_call(node.value)
                if marker is None:
                    continue
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        table[target.attr] = marker
            if table:
                self.self_attr_types[cls.name] = table

    def _type_of_call(self, call: ast.Call) -> Optional[str]:
        """Type marker when *call* constructs a class or a metric handle."""
        resolved = self._resolve_callable_name(call.func)
        if resolved is None:
            if (isinstance(call.func, ast.Attribute)
                    and call.func.attr in METRIC_FACTORIES):
                return METRIC_TYPE
            return None
        last = resolved.rsplit(".", 1)[-1]
        if last in METRIC_FACTORIES:
            return METRIC_TYPE
        if last[:1].isupper():
            return resolved
        return None

    # -- defs, references, function IRs -------------------------------------

    def _collect_defs_and_functions(self):
        defs: List[DefInfo] = []
        module_refs: Set[str] = set()
        functions: List[FunctionIR] = []
        module_ops: List = []

        self._var_types = self._scan_var_types(self.tree.body, params=None)
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append(self._def_info(stmt, "function"))
                for deco in stmt.decorator_list:
                    module_refs.update(self._refs_in(deco))
                functions.append(self._function_ir(stmt, class_name=None))
            elif isinstance(stmt, ast.ClassDef):
                defs.append(self._def_info(stmt, "class"))
                for deco in stmt.decorator_list + stmt.bases:
                    module_refs.update(self._refs_in(deco))
                self._current_class = stmt.name
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        functions.append(
                            self._function_ir(sub, class_name=stmt.name)
                        )
                self._current_class = None
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            else:
                module_refs.update(self._refs_in(stmt))
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    defs.extend(self._constant_defs(stmt))
                self._current_class = None
                module_ops.extend(self._ops_for_stmt(stmt))
        functions.append(
            FunctionIR(
                qualname=f"{self.module}.<module>",
                lineno=1,
                params=(),
                ops=tuple(module_ops),
            )
        )
        return tuple(defs), tuple(sorted(module_refs)), tuple(functions)

    def _constant_defs(self, stmt) -> List[DefInfo]:
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        out = []
        for target in targets:
            if isinstance(target, ast.Name):
                out.append(DefInfo(
                    name=target.id,
                    kind="constant",
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    public=not target.id.startswith("_"),
                    decorated=False,
                ))
        return out

    def _def_info(self, node, kind: str) -> DefInfo:
        return DefInfo(
            name=node.name,
            kind=kind,
            line=node.lineno,
            col=node.col_offset,
            public=not node.name.startswith("_"),
            decorated=bool(node.decorator_list),
            refs=tuple(sorted(self._refs_in(node))),
        )

    def _refs_in(self, node: ast.AST) -> Set[str]:
        """Canonical dotted references made anywhere inside *node*."""
        refs: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                dotted = self._dotted_parts(sub)
                if dotted is None:
                    continue
                head, rest = dotted[0], dotted[1:]
                base = self._resolve_head(head)
                if base is not None:
                    refs.add(".".join([base] + list(rest)))
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                base = self._resolve_head(sub.id)
                if base is not None:
                    refs.add(base)
        return refs

    def _resolve_head(self, name: str) -> Optional[str]:
        if name in self.imports:
            return self.imports[name]
        if name in self.top_defs:
            return f"{self.module}.{name}"
        return None

    @staticmethod
    def _dotted_parts(node: ast.AST) -> Optional[List[str]]:
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(current.id)
            return list(reversed(parts))
        return None

    # -- function IR ---------------------------------------------------------

    def _function_ir(self, node, class_name: Optional[str]) -> FunctionIR:
        params = [a.arg for a in node.args.posonlyargs + node.args.args
                  + node.args.kwonlyargs]
        qual = (f"{self.module}.{class_name}.{node.name}" if class_name
                else f"{self.module}.{node.name}")
        outer_types = self._var_types
        self._current_class = class_name
        self._var_types = self._scan_var_types(node.body, params=node.args)
        ops: List = []
        for stmt in node.body:
            ops.extend(self._ops_for_stmt(stmt))
        self._var_types = outer_types
        self._current_class = None
        return FunctionIR(
            qualname=qual,
            lineno=node.lineno,
            params=tuple(params),
            ops=tuple(ops),
            is_method=class_name is not None,
        )

    def _scan_var_types(self, body, params) -> Dict[str, str]:
        types: Dict[str, str] = {}
        if params is not None:
            for arg in params.posonlyargs + params.args + params.kwonlyargs:
                if arg.annotation is not None:
                    dotted = self._dotted_parts(arg.annotation)
                    if dotted:
                        base = self._resolve_head(dotted[0])
                        resolved = ".".join([base] + dotted[1:]) if base else None
                        if resolved and resolved.rsplit(".", 1)[-1][:1].isupper():
                            types[arg.arg] = resolved
        for stmt in body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Call)):
                    marker = self._type_of_call(node.value)
                    if marker is None:
                        continue
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            types[target.id] = marker
        return types

    # -- statements → ops ----------------------------------------------------

    _MUTATORS = {"append", "extend", "add", "update", "insert", "setdefault",
                 "appendleft", "push"}

    def _ops_for_stmt(self, stmt) -> List:
        ops: List = []
        if isinstance(stmt, ast.Assign):
            plain: List[str] = []
            merged: List[str] = []
            for target in stmt.targets:
                plain_t, merged_t = self._target_names(target)
                plain.extend(plain_t)
                merged.extend(merged_t)
            value = self._flatten(stmt.value)
            if plain:
                ops.append(OpAssign(tuple(plain), value, stmt.lineno))
            if merged:
                ops.append(OpAssign(tuple(merged), value, stmt.lineno, merge=True))
            if not plain and not merged:
                ops.append(OpExpr(value, stmt.lineno))
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                plain, merged = self._target_names(stmt.target)
                names = tuple(plain + merged)
                value = self._flatten(stmt.value)
                if names:
                    ops.append(OpAssign(names, value, stmt.lineno,
                                        merge=bool(merged)))
                else:
                    ops.append(OpExpr(value, stmt.lineno))
        elif isinstance(stmt, ast.AugAssign):
            plain, merged = self._target_names(stmt.target)
            names = tuple(plain + merged)
            value = self._flatten(stmt.value)
            if names:
                ops.append(OpAssign(names, value, stmt.lineno, merge=True))
        elif isinstance(stmt, ast.Expr):
            ops.extend(self._ops_for_expr_stmt(stmt))
        elif isinstance(stmt, ast.Return):
            value = self._flatten(stmt.value) if stmt.value is not None else None
            ops.append(OpReturn(value, stmt.lineno))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            plain, merged = self._target_names(stmt.target)
            iter_ir = self._flatten(stmt.iter, iteration=True)
            ops.append(OpAssign(tuple(plain + merged), iter_ir, stmt.lineno,
                                merge=True))
            for sub in stmt.body + stmt.orelse:
                ops.extend(self._ops_for_stmt(sub))
        elif isinstance(stmt, ast.While):
            ops.append(OpExpr(self._flatten(stmt.test), stmt.lineno))
            for sub in stmt.body + stmt.orelse:
                ops.extend(self._ops_for_stmt(sub))
        elif isinstance(stmt, ast.If):
            ops.append(OpExpr(self._flatten(stmt.test), stmt.lineno))
            for sub in stmt.body + stmt.orelse:
                ops.extend(self._ops_for_stmt(sub))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                ctx_ir = self._flatten(item.context_expr)
                if item.optional_vars is not None:
                    plain, merged = self._target_names(item.optional_vars)
                    names = tuple(plain + merged)
                    if names:
                        ops.append(OpAssign(names, ctx_ir, stmt.lineno))
                        continue
                ops.append(OpExpr(ctx_ir, stmt.lineno))
            for sub in stmt.body:
                ops.extend(self._ops_for_stmt(sub))
        elif isinstance(stmt, ast.Try):
            blocks = [stmt.body, stmt.orelse, stmt.finalbody]
            for handler in stmt.handlers:
                blocks.append(handler.body)
            for block in blocks:
                for sub in block:
                    ops.extend(self._ops_for_stmt(sub))
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef, ast.Import, ast.ImportFrom,
                               ast.Global, ast.Nonlocal, ast.Pass,
                               ast.Break, ast.Continue)):
            pass
        elif isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
            for node in ast.iter_child_nodes(stmt):
                if isinstance(node, ast.expr):
                    ops.append(OpExpr(self._flatten(node), stmt.lineno))
        else:  # Match and anything future: flatten child expressions.
            for node in ast.iter_child_nodes(stmt):
                if isinstance(node, ast.expr):
                    ops.append(OpExpr(self._flatten(node), stmt.lineno))
        return ops

    def _ops_for_expr_stmt(self, stmt: ast.Expr) -> List:
        value = stmt.value
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            recv = self._receiver_name(value.func.value)
            if recv is not None:
                if value.func.attr == "sort" and not value.args:
                    return [OpKill(recv, ("order",), stmt.lineno)]
                if value.func.attr in self._MUTATORS:
                    parts: List[ExprIR] = [self._flatten(a) for a in value.args]
                    parts.extend(self._flatten(k.value) for k in value.keywords)
                    atoms: List[Tuple] = []
                    for part in parts:
                        atoms.append(("sub", part))
                    merged = ExprIR(atoms=tuple(atoms))
                    # Still surface the call itself (it may be a sink on a
                    # typed receiver, e.g. writer.append_row(row)).
                    return [
                        OpExpr(self._flatten(value), stmt.lineno),
                        OpAssign((recv,), merged, stmt.lineno, merge=True),
                    ]
        return [OpExpr(self._flatten(value), stmt.lineno)]

    def _receiver_name(self, node: ast.AST) -> Optional[str]:
        """``x`` or ``self.attr`` receiver spelling, else None."""
        if isinstance(node, ast.Name):
            return node.id
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return f"self.{node.attr}"
        return None

    def _target_names(self, target) -> Tuple[List[str], List[str]]:
        """(plain overwrite names, merge-into names) for an assign target."""
        plain: List[str] = []
        merged: List[str] = []
        if isinstance(target, ast.Name):
            plain.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                p, m = self._target_names(elt)
                plain.extend(p)
                merged.extend(m)
        elif isinstance(target, ast.Starred):
            p, m = self._target_names(target.value)
            plain.extend(p)
            merged.extend(m)
        elif isinstance(target, ast.Attribute):
            recv = self._receiver_name(target)
            if recv is not None:
                plain.append(recv)
            else:
                base = self._receiver_name(target.value)
                if base is not None:
                    merged.append(base)
        elif isinstance(target, ast.Subscript):
            base = self._receiver_name(target.value)
            if base is not None:
                merged.append(base)
        return plain, merged

    # -- expressions → ExprIR ------------------------------------------------

    def _flatten(self, node: ast.AST, iteration: bool = False) -> ExprIR:
        atoms: List[Tuple] = []
        self._flatten_into(node, atoms, iteration=iteration)
        return ExprIR(atoms=tuple(atoms))

    def _flatten_into(self, node, atoms: List[Tuple], iteration: bool = False):
        if node is None:
            return
        if iteration and is_set_producing(node):
            atoms.append(("src", SourceRef(
                kind="set_iter",
                taint="order",
                line=getattr(node, "lineno", 1),
                detail="unsorted set iteration",
                col=getattr(node, "col_offset", 0) + 1,
            )))
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                atoms.append(("read", node.id))
            return
        if isinstance(node, ast.Constant):
            return
        if isinstance(node, ast.Call):
            self._flatten_call(node, atoms)
            return
        if isinstance(node, ast.Attribute):
            recv = self._receiver_name(node)
            if recv is not None and recv.startswith("self."):
                atoms.append(("read", recv))
                return
            self._flatten_into(node.value, atoms)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            for gen in node.generators:
                self._flatten_into(gen.iter, atoms, iteration=True)
                for cond in gen.ifs:
                    self._flatten_into(cond, atoms)
            if isinstance(node, ast.DictComp):
                self._flatten_into(node.key, atoms)
                self._flatten_into(node.value, atoms)
            else:
                self._flatten_into(node.elt, atoms)
            return
        if isinstance(node, ast.Lambda):
            return  # opaque; calls through it are dynamic anyway
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._flatten_into(child, atoms)
            elif isinstance(child, ast.FormattedValue):
                self._flatten_into(child.value, atoms)

    def _flatten_call(self, node: ast.Call, atoms: List[Tuple]) -> None:
        resolved = self._resolve_callable_name(node.func)
        line = node.lineno

        self._maybe_fork_site(node, resolved)

        # Nondeterminism sources: the call result is tainted regardless of
        # its arguments (it is the order/value that is nondeterministic).
        source = self._source_for(resolved)
        if source is not None:
            kind, taint = source
            atoms.append(("src", SourceRef(kind=kind, taint=taint, line=line,
                                           detail=f"{resolved}()",
                                           col=node.col_offset + 1)))
            return

        # Order sanitizers: the arguments' order taint dies here.
        if resolved in ORDER_SANITIZERS:
            inner: List[Tuple] = []
            for arg in node.args:
                self._flatten_into(arg, inner)
            for kw in node.keywords:
                self._flatten_into(kw.value, inner)
            atoms.append(("sub", ExprIR(atoms=tuple(inner), kills=("order",))))
            return

        # RNG forks are deterministic by construction.
        if resolved in FORK_ROOTS or (
            resolved is not None
            and resolved.endswith(FORK_WRAPPER_SUFFIXES)
        ):
            return

        method = None
        metric_chain = False
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            metric_chain = self._is_metric_receiver(node.func.value, method)
        starred = any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        )
        args = tuple(self._flatten(a.value if isinstance(a, ast.Starred) else a)
                     for a in node.args)
        kwargs = tuple((kw.arg, self._flatten(kw.value))
                       for kw in node.keywords)
        atoms.append(("call", CallIR(
            callee=resolved,
            line=line,
            col=node.col_offset + 1,
            args=args,
            kwargs=kwargs,
            method=method,
            starred=starred,
            metric_chain=metric_chain,
        )))

    def _source_for(self, resolved: Optional[str]):
        if resolved is None:
            return None
        if resolved in TAINT_SOURCES:
            return TAINT_SOURCES[resolved]
        if (resolved.startswith("random.")
                and resolved not in RANDOM_ALLOWED
                and resolved.count(".") == 1):
            return ("global_random", "value")
        return None

    def _is_metric_receiver(self, recv: ast.AST, method: str) -> bool:
        if method not in METRIC_MUTATORS:
            return False
        if (isinstance(recv, ast.Call)
                and isinstance(recv.func, ast.Attribute)
                and recv.func.attr in METRIC_FACTORIES):
            return True
        name = self._receiver_name(recv)
        if name is None:
            return False
        if name.startswith("self."):
            table = self.self_attr_types.get(self._current_class or "", {})
            return table.get(name[len("self."):]) == METRIC_TYPE
        return self._var_types.get(name) == METRIC_TYPE

    # -- callable resolution -------------------------------------------------

    def _resolve_callable_name(self, func: ast.AST) -> Optional[str]:
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.imports:
                return self.imports[name]
            if name in self.top_defs:
                return f"{self.module}.{name}"
            if name in _KNOWN_BUILTINS:
                return name
            return None
        parts = self._dotted_parts(func)
        if parts is None:
            return None
        head, rest = parts[0], parts[1:]
        if head == "self":
            cls = self._current_class
            if cls is None:
                return None
            if len(rest) == 1:
                return f"{self.module}.{cls}.{rest[0]}"
            if len(rest) == 2:
                attr_type = self.self_attr_types.get(cls, {}).get(rest[0])
                if attr_type and attr_type != METRIC_TYPE:
                    return f"{attr_type}.{rest[1]}"
            return None
        if head in self.imports:
            return ".".join([self.imports[head]] + rest)
        if head in self._var_types and len(rest) == 1:
            var_type = self._var_types[head]
            if var_type != METRIC_TYPE:
                return f"{var_type}.{rest[0]}"
            return None
        if head in self.top_defs:
            return ".".join([self.module, head] + rest)
        return None

    # -- RNG fork sites ------------------------------------------------------

    def _maybe_fork_site(self, node: ast.Call, resolved: Optional[str]) -> None:
        kind = None
        label_args: Sequence[ast.expr] = ()
        detail = resolved or ""
        if resolved in FORK_ROOTS:
            kind, label_args = "root", node.args[1:]
        elif resolved is not None and resolved.endswith(FORK_WRAPPER_SUFFIXES):
            kind, label_args = "root", node.args[1:]
        elif resolved is not None and resolved == f"{RNG_STREAM_CLASS}.split":
            kind, label_args = "split", node.args
            detail = "RngStream.split"
        elif (isinstance(node.func, ast.Attribute)
              and node.func.attr == "split" and node.args):
            recv = self._receiver_name(node.func.value)
            if recv is not None and "rng" in recv.rsplit(".", 1)[-1].lower():
                kind, label_args = "split", node.args
                detail = f"{recv}.split"
        if kind is None:
            return
        variadic = any(isinstance(a, ast.Starred) for a in node.args)
        labels = tuple(
            a.value if isinstance(a, ast.Constant) and isinstance(a.value, str)
            else "*"
            for a in label_args
            if not isinstance(a, ast.Starred)
        )
        self.fork_sites.append(ForkSite(
            line=node.lineno,
            col=node.col_offset + 1,
            kind=kind,
            labels=labels,
            variadic=variadic,
            detail=detail,
            line_text=self._line_text(node.lineno),
        ))

    # -- observability facts -------------------------------------------------

    def _collect_obs_uses(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            self._metric_use(node)
            resolved = self._resolve_dotted_loose(node.func)
            if resolved in PHASE_PROGRESS_CALLS:
                self._phase_use(node)
            elif resolved == "threading.Thread":
                self._thread_use(node)

    def _resolve_dotted_loose(self, func: ast.AST) -> Optional[str]:
        """Import-alias resolution without local-type smarts (rule parity
        with :class:`repro.lint.base.ImportMap`)."""
        parts = self._dotted_parts(func)
        if parts is None:
            return None
        head, rest = parts[0], parts[1:]
        base = self.imports.get(head, head)
        return ".".join([base] + rest)

    def _metric_use(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr in METRIC_FACTORIES
                and node.args):
            return
        if isinstance(node.func.value, ast.Name) and node.func.value.id in (
            "self", "cls",
        ):
            return
        name_arg = node.args[0]
        line, col = name_arg.lineno, name_arg.col_offset + 1
        text = self._line_text(line)
        if isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str):
            self.obs_uses.append(ObsUse("metric_literal", line, col,
                                        name_arg.value, text))
            return
        if isinstance(name_arg, ast.Attribute) and isinstance(
            name_arg.value, ast.Name
        ):
            module = self.imports.get(name_arg.value.id, name_arg.value.id)
            if module != "repro.obs.names":
                self.obs_uses.append(ObsUse("metric_foreign", line, col,
                                            module, text))
            else:
                self.obs_uses.append(ObsUse("metric_attr", line, col,
                                            name_arg.attr, text))
            return
        if isinstance(name_arg, ast.Name):
            origin = self.imports.get(name_arg.id, name_arg.id)
            if origin.startswith("repro.obs.names."):
                self.obs_uses.append(ObsUse("metric_name", line, col,
                                            origin.rsplit(".", 1)[1], text))
                return
        self.obs_uses.append(ObsUse("metric_other", line, col, "", text))

    def _phase_use(self, node: ast.Call) -> None:
        if not node.args:
            self.obs_uses.append(ObsUse(
                "phase_missing", node.lineno, node.col_offset + 1, "",
                self._line_text(node.lineno),
            ))
            return
        phase_arg = node.args[0]
        line, col = phase_arg.lineno, phase_arg.col_offset + 1
        if not (isinstance(phase_arg, ast.Constant)
                and isinstance(phase_arg.value, str)):
            self.obs_uses.append(ObsUse("phase_dynamic", line, col, "",
                                        self._line_text(line)))
            return
        self.obs_uses.append(ObsUse("phase_literal", line, col,
                                    phase_arg.value, self._line_text(line)))

    def _thread_use(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if (keyword.arg == "daemon"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True):
                return
        self.obs_uses.append(ObsUse(
            "thread_nondaemon", node.lineno, node.col_offset + 1, "",
            self._line_text(node.lineno),
        ))

    # -- misc ----------------------------------------------------------------

    def _collect_all_names(self) -> Tuple[str, ...]:
        for stmt in self.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        value = stmt.value
                        if isinstance(value, (ast.List, ast.Tuple)):
                            return tuple(
                                e.value for e in value.elts
                                if isinstance(e, ast.Constant)
                                and isinstance(e.value, str)
                            )
        return ()

    def _line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def extract_module_facts(
    path: str,
    source: Optional[str] = None,
    tree: Optional[ast.Module] = None,
    lines: Optional[List[str]] = None,
) -> ModuleFacts:
    """Extract :class:`ModuleFacts` from one file.

    Pass ``source`` (parsed here), a pre-parsed ``tree`` + ``lines`` pair
    (the lint engine reuses its own parse), or neither — then the file is
    read from disk. Raises ``SyntaxError`` on unparsable source and
    ``OSError`` on unreadable files, same as the engine's own steps.
    """
    if tree is None:
        if source is None:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        tree = ast.parse(source, filename=path)
        lines = source.splitlines()
    if lines is None:
        lines = source.splitlines() if source is not None else []
    return _Extractor(path, tree, lines).extract()
