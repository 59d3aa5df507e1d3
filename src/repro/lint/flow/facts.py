"""Per-module fact extraction for the cross-file lint rules.

One call to :func:`extract_module_facts` turns one source file into a
:class:`ModuleFacts` — a compact, frozen value object with everything
the cross-file rules need: the alias-resolved import table, top-level
definitions with the references each makes (RL703), labelled RNG fork
sites (RL702) and observability call-site facts (RL301/RL302). No
``ast`` node survives into the output.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.base import FileContext

METRIC_FACTORIES = {"counter", "gauge", "histogram"}

#: A fork root holding its labels as a prefix: every ``draw`` appends one
#: more runtime label, so its sites register their labels plus ``"*"``.
FORK_PREFIX_CLASS = "repro.util.rng.ForkPrefix"
#: Canonical names of the labelled RNG fork primitives.
FORK_ROOTS = {
    "repro.util.rng.RngStream",
    "repro.util.rng.split_seed",
    FORK_PREFIX_CLASS,
}
RNG_STREAM_CLASS = "repro.util.rng.RngStream"

PHASE_PROGRESS_CALLS = (
    "repro.obs.phase_progress",
    "repro.obs.live.phase_progress",
)


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
    kind: str                 # "root" (RngStream/split_seed/ForkPrefix) | "split"
    labels: Tuple[str, ...]   # literal components; "*" for runtime-varying
    variadic: bool            # *labels relay — nothing to register here


@dataclass(frozen=True)
class ObsUse:
    """One observability call-site fact (RL301/RL302 input)."""

    kind: str   # metric_literal|metric_foreign|metric_attr|metric_name|metric_other
    #         | phase_missing|phase_dynamic|phase_literal|thread_nondaemon
    line: int
    col: int
    value: str = ""       # literal / constant / module, per kind


@dataclass(frozen=True)
class ModuleFacts:
    """Everything the cross-file passes need to know about one file."""

    path: str
    module: str
    imports: Tuple[Tuple[str, str], ...] = ()      # local name → dotted target
    star_imports: Tuple[str, ...] = ()
    defs: Tuple[DefInfo, ...] = ()
    module_refs: Tuple[str, ...] = ()
    fork_sites: Tuple[ForkSite, ...] = ()
    obs_uses: Tuple[ObsUse, ...] = ()

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
    def __init__(self, context: FileContext) -> None:
        self.path = context.path
        self.tree = context.tree
        self.nodes = context.nodes
        self.module = module_name_for_path(self.path)
        self.is_package = (self.path.endswith("/__init__.py")
                           or self.path == "__init__.py")
        self.imports: Dict[str, str] = {}
        self.star_imports: List[str] = []
        self.top_defs: Set[str] = set()
        self.fork_sites: List[ForkSite] = []
        self.obs_uses: List[ObsUse] = []

    # -- driving ------------------------------------------------------------

    def extract(self) -> ModuleFacts:
        self._collect_imports()
        self._collect_top_defs()
        defs, module_refs = self._collect_defs()
        self._collect_fork_sites()
        self._collect_obs_uses()
        return ModuleFacts(
            path=self.path,
            module=self.module,
            imports=tuple(sorted(self.imports.items())),
            star_imports=tuple(sorted(set(self.star_imports))),
            defs=defs,
            module_refs=module_refs,
            fork_sites=tuple(sorted(self.fork_sites,
                                    key=lambda s: (s.line, s.col))),
            obs_uses=tuple(self.obs_uses),
        )

    # -- imports ------------------------------------------------------------

    def _collect_imports(self) -> None:
        package = self.module if self.is_package else self.module.rpartition(".")[0]
        for node in self.nodes:
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

    # -- defs and references ------------------------------------------------

    def _collect_defs(self):
        defs: List[DefInfo] = []
        module_refs: Set[str] = set()
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append(self._def_info(stmt, "function"))
                for deco in stmt.decorator_list:
                    module_refs.update(self._refs_in(deco))
            elif isinstance(stmt, ast.ClassDef):
                defs.append(self._def_info(stmt, "class"))
                for deco in stmt.decorator_list + stmt.bases:
                    module_refs.update(self._refs_in(deco))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                module_refs.update(self._refs_in(stmt))
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    defs.extend(self._constant_defs(stmt))
        return tuple(defs), tuple(sorted(module_refs))

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

    # -- RNG fork sites ------------------------------------------------------

    def _collect_fork_sites(self) -> None:
        classes = [
            (stmt.lineno, stmt.end_lineno, stmt.name)
            for stmt in self.tree.body if isinstance(stmt, ast.ClassDef)
        ]
        for node in self.nodes:
            if isinstance(node, ast.Call):
                self._maybe_fork_site(node, classes)

    def _resolve_callable_name(self, call: ast.Call, classes) -> Optional[str]:
        """Dotted target of *call*; ``self.m()`` resolves against the
        top-level class whose lines enclose the call."""
        parts = self._dotted_parts(call.func)
        if parts is None:
            return None
        head, rest = parts[0], parts[1:]
        if head == "self":
            if len(rest) != 1:
                return None
            for first, last, name in classes:
                if first <= call.lineno <= last:
                    return f"{self.module}.{name}.{rest[0]}"
            return None
        base = self._resolve_head(head)
        return ".".join([base] + rest) if base is not None else None

    @staticmethod
    def _receiver_name(node: ast.AST) -> Optional[str]:
        """``x`` or ``self.attr`` receiver spelling, else None."""
        if isinstance(node, ast.Name):
            return node.id
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return f"self.{node.attr}"
        return None

    def _maybe_fork_site(self, node: ast.Call, classes) -> None:
        resolved = self._resolve_callable_name(node, classes)
        kind = None
        label_args: Sequence[ast.expr] = ()
        if resolved in FORK_ROOTS:
            kind, label_args = "root", node.args[1:]
        elif resolved == f"{RNG_STREAM_CLASS}.split":
            kind, label_args = "split", node.args
        elif (isinstance(node.func, ast.Attribute)
              and node.func.attr == "split" and node.args):
            recv = self._receiver_name(node.func.value)
            if recv is not None and "rng" in recv.rsplit(".", 1)[-1].lower():
                kind, label_args = "split", node.args
        if kind is None:
            return
        variadic = any(isinstance(a, ast.Starred) for a in node.args)
        labels = tuple(
            a.value if isinstance(a, ast.Constant) and isinstance(a.value, str)
            else "*"
            for a in label_args
            if not isinstance(a, ast.Starred)
        )
        if resolved == FORK_PREFIX_CLASS:
            labels += ("*",)
        self.fork_sites.append(ForkSite(
            line=node.lineno,
            col=node.col_offset + 1,
            kind=kind,
            labels=labels,
            variadic=variadic,
        ))

    # -- observability facts -------------------------------------------------

    def _collect_obs_uses(self) -> None:
        for node in self.nodes:
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
        if isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str):
            self.obs_uses.append(ObsUse("metric_literal", line, col,
                                        name_arg.value))
            return
        if isinstance(name_arg, ast.Attribute) and isinstance(
            name_arg.value, ast.Name
        ):
            module = self.imports.get(name_arg.value.id, name_arg.value.id)
            if module != "repro.obs.names":
                self.obs_uses.append(ObsUse("metric_foreign", line, col,
                                            module))
            else:
                self.obs_uses.append(ObsUse("metric_attr", line, col,
                                            name_arg.attr))
            return
        if isinstance(name_arg, ast.Name):
            origin = self.imports.get(name_arg.id, name_arg.id)
            if origin.startswith("repro.obs.names."):
                self.obs_uses.append(ObsUse("metric_name", line, col,
                                            origin.rsplit(".", 1)[1]))
                return
        self.obs_uses.append(ObsUse("metric_other", line, col))

    def _phase_use(self, node: ast.Call) -> None:
        if not node.args:
            self.obs_uses.append(ObsUse(
                "phase_missing", node.lineno, node.col_offset + 1,
            ))
            return
        phase_arg = node.args[0]
        line, col = phase_arg.lineno, phase_arg.col_offset + 1
        if not (isinstance(phase_arg, ast.Constant)
                and isinstance(phase_arg.value, str)):
            self.obs_uses.append(ObsUse("phase_dynamic", line, col))
            return
        self.obs_uses.append(ObsUse("phase_literal", line, col,
                                    phase_arg.value))

    def _thread_use(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if (keyword.arg == "daemon"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True):
                return
        self.obs_uses.append(ObsUse(
            "thread_nondaemon", node.lineno, node.col_offset + 1,
        ))


def extract_module_facts(
    path: str,
    source: Optional[str] = None,
    context: Optional[FileContext] = None,
) -> ModuleFacts:
    """Extract :class:`ModuleFacts` from one file.

    Pass ``source`` (parsed here), the lint engine's own parsed
    ``context``, or neither — then the file is read from disk. Raises
    ``SyntaxError`` on unparsable source and ``OSError`` on unreadable
    files, same as the engine's own steps.
    """
    if context is None:
        if source is None:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        context = FileContext.parse(path, source)
    return _Extractor(context).extract()
