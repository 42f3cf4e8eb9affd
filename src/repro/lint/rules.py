"""The repo-specific rules.  See the package docstring for the contract each
rule defends and README's "Static analysis" section for examples.

File rules receive a ``FileContext`` (path, source, AST, import map,
config); project rules receive a ``ProjectContext`` (config + every
collected file) — both defined in :mod:`repro.lint.runner`.  Rules are
generators; scope checks happen inside the rule so that out-of-scope files
cost one tuple comparison.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .astutil import (
    ImportMap,
    is_float_or_complex_literal_dtype,
    is_int_or_bool_dtype,
    keyword_value,
)
from .registry import register_rule
from .violations import Violation, make_violation


def _in_scope(relpath: str, prefixes) -> bool:
    """Is ``relpath`` one of, or under, the configured path prefixes?"""
    for prefix in prefixes:
        norm = prefix.rstrip("/")
        if relpath == norm or relpath.startswith(norm + "/"):
            return True
    return False


# ======================================================================
# RL001 — backend purity of context-threaded modules
# ======================================================================

#: numpy functions that *produce or combine data arrays*.  Metadata probes
#: (``np.shape``, ``np.result_type``, ``np.dtype``, ``np.issubdtype``, ...)
#: and scalar reductions are deliberately absent: they cost nothing on a
#: device pipeline.  ``np.linalg.*`` and ``scipy.linalg.*`` are denied
#: wholesale (every member is a compute kernel).
_RL001_DENY = frozenset(
    {
        "array",
        "asarray",
        "ascontiguousarray",
        "asfortranarray",
        "copy",
        "stack",
        "vstack",
        "hstack",
        "dstack",
        "column_stack",
        "concatenate",
        "block",
        "zeros",
        "ones",
        "empty",
        "full",
        "zeros_like",
        "ones_like",
        "empty_like",
        "full_like",
        "eye",
        "identity",
        "arange",
        "linspace",
        "diag",
        "tril",
        "triu",
        "outer",
        "kron",
        "matmul",
        "dot",
        "vdot",
        "inner",
        "einsum",
        "tensordot",
    }
)

_RL001_DENY_PREFIXES = ("numpy.linalg.", "scipy.linalg.", "scipy.sparse.linalg.")


@register_rule(
    "RL001",
    "backend-purity",
    "file",
    "context-threaded modules must route array work through the ArrayBackend",
)
def rl001_backend_purity(ctx) -> Iterator[Violation]:
    if not _in_scope(ctx.relpath, ctx.config.rl001_modules):
        return
    imports: ImportMap = ctx.imports
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = imports.resolve(node.func)
        if name is None:
            continue
        denied = any(name.startswith(p) for p in _RL001_DENY_PREFIXES) or (
            name.startswith("numpy.") and name[len("numpy.") :] in _RL001_DENY
        )
        if not denied:
            continue
        dtype_kw = keyword_value(node, "dtype")
        if dtype_kw is not None and is_int_or_bool_dtype(dtype_kw, imports):
            # host index/pivot metadata (gather indices, pivot rows, masks)
            # is exempt: fancy indexing and pivot bookkeeping accept host
            # integer arrays on every backend without a data round-trip
            continue
        yield make_violation(
            ctx.relpath,
            node,
            "RL001",
            f"host array call {name}() in a context-threaded module; route "
            "data arrays through the ArrayBackend (xb.<method>), pass an "
            "integer/bool dtype= for host index metadata, or baseline a "
            "deliberate host path with a reasoned pragma",
        )


# ======================================================================
# RL002 — no hard-coded floating dtypes in plan/factor storage paths
# ======================================================================
@register_rule(
    "RL002",
    "dtype-hardcoding",
    "file",
    "plan/factor storage paths must take dtypes from the PrecisionPolicy",
)
def rl002_dtype_hardcoding(ctx) -> Iterator[Violation]:
    if not _in_scope(ctx.relpath, ctx.config.rl002_modules):
        return
    imports: ImportMap = ctx.imports
    seen: Set[Tuple[int, int]] = set()

    def flag(expr: ast.expr, how: str) -> Optional[Violation]:
        key = (expr.lineno, expr.col_offset)
        if key in seen:
            return None
        seen.add(key)
        return make_violation(
            ctx.relpath,
            expr,
            "RL002",
            f"hard-coded floating dtype {how} in a plan/factor storage path "
            "defeats PrecisionPolicy demotion; derive the dtype from the "
            "context (precision.plan_dtype/factor_dtype/storage_dtype) or "
            "from the operands (np.result_type)",
        )

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            dtype_kw = keyword_value(node, "dtype")
            if dtype_kw is not None and is_float_or_complex_literal_dtype(
                dtype_kw, imports
            ):
                v = flag(dtype_kw, f"dtype={ast.unparse(dtype_kw)}")
                if v:
                    yield v
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and node.args
                and is_float_or_complex_literal_dtype(node.args[0], imports)
            ):
                v = flag(node.args[0], f".astype({ast.unparse(node.args[0])})")
                if v:
                    yield v
        elif isinstance(node, ast.Attribute):
            name = imports.resolve(node)
            if (
                name is not None
                and name.startswith("numpy.")
                and is_float_or_complex_literal_dtype(node, imports)
            ):
                v = flag(node, name)
                if v:
                    yield v


# ======================================================================
# RL004 — deterministic source and test suite
# ======================================================================
_RL004_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "monotonic",
        "monotonic_ns",
        "thread_time",
        "thread_time_ns",
        "clock_gettime",
        "sleep",
    }
)

#: legacy global-state numpy RNG entry points — unseedable per call site
_RL004_NP_RANDOM = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "randint",
        "random_integers",
        "normal",
        "standard_normal",
        "uniform",
        "choice",
        "permutation",
        "shuffle",
    }
)

_RL004_STDLIB_RANDOM = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "shuffle",
        "choice",
        "choices",
        "sample",
        "seed",
    }
)


def _is_unseeded(call: ast.Call) -> bool:
    """No positional seed and no seed= keyword — a fresh OS-entropy stream."""
    if call.args:
        return False
    return keyword_value(call, "seed") is None


@register_rule(
    "RL004",
    "test-determinism",
    "file",
    "no wall-clock timing and no unseeded RNG in src/ and tests/",
)
def rl004_determinism(ctx) -> Iterator[Violation]:
    if not _in_scope(ctx.relpath, ctx.config.rl004_include):
        return
    imports: ImportMap = ctx.imports
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = imports.resolve(node.func)
        if name is None:
            continue
        if name.startswith("time.") and name[len("time.") :] in _RL004_TIME_FUNCS:
            yield make_violation(
                ctx.relpath,
                node,
                "RL004",
                f"wall-clock call {name}() — the suite must never time; move "
                "timing to benchmarks/ or baseline a deliberate measurement "
                "with a reasoned pragma",
            )
        elif name == "numpy.random.default_rng" and _is_unseeded(node):
            yield make_violation(
                ctx.relpath,
                node,
                "RL004",
                "unseeded numpy.random.default_rng() — pass an explicit seed "
                "so runs are reproducible",
            )
        elif name == "numpy.random.RandomState" and _is_unseeded(node):
            yield make_violation(
                ctx.relpath,
                node,
                "RL004",
                "unseeded numpy.random.RandomState() — pass an explicit seed "
                "so runs are reproducible",
            )
        elif (
            name.startswith("numpy.random.")
            and name[len("numpy.random.") :] in _RL004_NP_RANDOM
        ):
            yield make_violation(
                ctx.relpath,
                node,
                "RL004",
                f"global-state RNG call {name}() — use a seeded "
                "numpy.random.default_rng(seed) generator instead",
            )
        elif (
            name.startswith("random.")
            and name[len("random.") :] in _RL004_STDLIB_RANDOM
        ):
            yield make_violation(
                ctx.relpath,
                node,
                "RL004",
                f"global-state RNG call {name}() — use a seeded "
                "numpy.random.default_rng(seed) generator instead",
            )


# ======================================================================
# RL003 — trace-accounting completeness (cross-module)
# ======================================================================
def _protocol_methods(tree: ast.Module, class_name: str) -> List[ast.FunctionDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return [
                item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            ]
    return []


def _recorded_kernel_names(tree: ast.Module) -> Set[str]:
    """String literals recorded as kernel names in the wrappers module.

    Collects ``kernel="..."`` keywords and positional string arguments that
    look like kernel names (``*_batched``) — the latter covers the shared
    ``_record_gemm`` / ``_record_lu`` helpers, which take the name first.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        kernel_kw = keyword_value(node, "kernel")
        if isinstance(kernel_kw, ast.Constant) and isinstance(kernel_kw.value, str):
            names.add(kernel_kw.value)
        for arg in node.args:
            if (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and arg.value.endswith("_batched")
            ):
                names.add(arg.value)
    return names


def _flops_stem(kernel_name: str) -> str:
    for suffix in ("_strided_batched", "_batched"):
        if kernel_name.endswith(suffix):
            return kernel_name[: -len(suffix)]
    return kernel_name


def _defined_functions(tree: ast.Module) -> Set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _referenced_names(tree: ast.Module) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


@register_rule(
    "RL003",
    "trace-accounting",
    "project",
    "every ArrayBackend kernel needs a recording wrapper and a flop model",
)
def rl003_trace_accounting(project) -> Iterator[Violation]:
    cfg = project.config
    dispatch = project.files.get(cfg.rl003_dispatch)
    batched = project.files.get(cfg.rl003_batched)
    counters = project.files.get(cfg.rl003_counters)
    if dispatch is None or batched is None or counters is None:
        # the accounting stack is outside this run's roots; nothing to check
        return

    methods = _protocol_methods(dispatch.tree, cfg.rl003_protocol)
    if not methods:
        yield make_violation(
            cfg.rl003_dispatch,
            None,
            "RL003",
            f"protocol class {cfg.rl003_protocol!r} not found in "
            f"{cfg.rl003_dispatch}; the trace-accounting contract has no anchor",
        )
        return

    recorded = _recorded_kernel_names(batched.tree)
    flops_defs = _defined_functions(counters.tree)
    batched_refs = _referenced_names(batched.tree)
    kernels: Dict[str, Tuple[str, ...]] = dict(cfg.rl003_kernels)

    required_events: Set[str] = set()
    for method in methods:
        if method.name in cfg.rl003_exempt:
            continue
        events = kernels.get(method.name)
        if events is None:
            yield make_violation(
                cfg.rl003_dispatch,
                method,
                "RL003",
                f"ArrayBackend method {method.name!r} has no trace-accounting "
                "mapping: an un-modeled kernel corrupts the calibrated "
                "PerformanceModel and the CI counter gate.  Add a recording "
                "wrapper + flop model and map it in "
                "[tool.repro-lint.rl003-kernels] (or list it in rl003-exempt "
                "if it is array plumbing, not a kernel)",
            )
            continue
        required_events.update(events)
        if not any(e in recorded for e in events):
            yield make_violation(
                cfg.rl003_dispatch,
                method,
                "RL003",
                f"ArrayBackend method {method.name!r} maps to kernel event(s) "
                f"{sorted(events)} but {cfg.rl003_batched} never records any "
                "of them — add a KernelEvent-emitting wrapper",
            )

    for event in sorted(required_events | recorded):
        stem = _flops_stem(event)
        flops_fn = f"{stem}_flops"
        if flops_fn not in flops_defs:
            yield make_violation(
                cfg.rl003_counters,
                None,
                "RL003",
                f"kernel event {event!r} has no flop model: define "
                f"{flops_fn}() in {cfg.rl003_counters} so the performance "
                "model and the counter-based perf gate can price it",
            )
        elif event in recorded and flops_fn not in batched_refs:
            yield make_violation(
                cfg.rl003_batched,
                None,
                "RL003",
                f"{cfg.rl003_batched} records kernel event {event!r} but "
                f"never references its flop model {flops_fn}() — the "
                "recorded flops cannot be coming from the shared model",
            )


# ======================================================================
# RL006 — unsynchronized module-global mutation in shared modules
# ======================================================================

#: container methods that mutate their receiver in place
_RL006_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
    }
)

#: module-level values that are safe to touch without a lock by construction
_RL006_THREADSAFE_FACTORIES = ("threading.local", "contextvars.ContextVar")


def _rl006_root_name(expr: ast.expr) -> Optional[str]:
    """The base ``Name`` of a (possibly chained) subscript/attribute target."""
    while isinstance(expr, (ast.Subscript, ast.Attribute)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _rl006_module_names(tree: ast.Module, imports: ImportMap) -> Set[str]:
    """Names bound at module level to values shared across threads.

    Names bound to ``threading.local()`` / ``contextvars.ContextVar(...)``
    are excluded: their whole point is per-thread isolation.
    """
    names: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
            value = getattr(node, "value", None)
        if isinstance(value, ast.Call):
            resolved = imports.resolve(value.func)
            if resolved in _RL006_THREADSAFE_FACTORIES:
                continue
        for t in targets:
            if isinstance(t, ast.Name):
                names.add(t.id)
            elif isinstance(t, (ast.Tuple, ast.List)):
                names.update(e.id for e in t.elts if isinstance(e, ast.Name))
    return names


def _rl006_lock_guard(node) -> bool:
    """Is this ``with`` statement (textually) a lock acquisition?"""
    return any(
        "lock" in ast.unparse(item.context_expr).lower() for item in node.items
    )


@register_rule(
    "RL006",
    "pool-shared-state",
    "file",
    "modules shared by concurrent callers must mutate module globals only under a lock",
)
def rl006_pool_shared_state(ctx) -> Iterator[Violation]:
    if not _in_scope(ctx.relpath, ctx.config.rl006_modules):
        return
    module_names = _rl006_module_names(ctx.tree, ctx.imports)
    found: List[Violation] = []

    def flag(node: ast.AST, what: str) -> None:
        found.append(
            make_violation(
                ctx.relpath,
                node,
                "RL006",
                f"{what} outside any `with <lock>` block in a shared "
                "module: concurrent callers' threads can run this code at "
                "once and race the mutation.  Hold a module lock "
                "around it, make the state thread-local, or baseline a "
                "deliberately unsynchronized path with a reasoned pragma",
            )
        )

    def mutates_global(target: ast.expr, declared: Set[str]) -> Optional[str]:
        """The mutated module-global's name, or None."""
        if isinstance(target, ast.Name):
            return target.id if target.id in declared else None
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            root = _rl006_root_name(target)
            if root is not None and (root in module_names or root in declared):
                return root
            return None
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                hit = mutates_global(elt, declared)
                if hit is not None:
                    return hit
        return None

    def scan(node: ast.AST, declared: Set[str], guarded: bool) -> None:
        """Walk a function body tracking lexical ``with <lock>`` guards.

        ``declared`` holds the enclosing function's ``global`` names; a
        nested def restarts both sets — it executes at call time, not where
        it is defined, so an enclosing guard proves nothing about it.
        """
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = {
                    name
                    for sub in ast.walk(child)
                    if isinstance(sub, ast.Global)
                    for name in sub.names
                }
                scan(child, inner, False)
                continue
            if isinstance(child, (ast.With, ast.AsyncWith)):
                scan(child, declared, guarded or _rl006_lock_guard(child))
                continue
            if not guarded:
                if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        child.targets
                        if isinstance(child, ast.Assign)
                        else [child.target]
                    )
                    for target in targets:
                        hit = mutates_global(target, declared)
                        if hit is not None:
                            flag(child, f"assignment to module global {hit!r}")
                            break
                elif isinstance(child, ast.Delete):
                    for target in child.targets:
                        hit = mutates_global(target, declared)
                        if hit is not None:
                            flag(child, f"deletion of module global {hit!r}")
                            break
                elif (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in _RL006_MUTATORS
                ):
                    root = _rl006_root_name(child.func.value)
                    if root is not None and root in module_names:
                        flag(
                            child,
                            f"in-place .{child.func.attr}() on module "
                            f"global {root!r}",
                        )
            scan(child, declared, guarded)

    def find_functions(node: ast.AST) -> None:
        # module-level statements run once under the import lock; only code
        # inside functions can execute concurrently
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                declared = {
                    name
                    for sub in ast.walk(child)
                    if isinstance(sub, ast.Global)
                    for name in sub.names
                }
                scan(child, declared, False)
            else:
                find_functions(child)

    find_functions(ctx.tree)
    yield from found


# ======================================================================
# RL005 — config serialization drift (cross-module)
# ======================================================================
def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> List[str]:
    out = []
    for item in node.body:
        if not isinstance(item, ast.AnnAssign) or not isinstance(
            item.target, ast.Name
        ):
            continue
        if item.target.id.startswith("_"):
            continue
        annotation = ast.unparse(item.annotation)
        if "ClassVar" in annotation or "InitVar" in annotation:
            continue
        out.append(item.target.id)
    return out


def _method(node: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == name:
            return item
    return None


def _calls_asdict_self(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            target = node.func
            name = (
                target.id
                if isinstance(target, ast.Name)
                else target.attr
                if isinstance(target, ast.Attribute)
                else None
            )
            if name == "asdict":
                return True
    return False


def _expands_kwargs(func: ast.FunctionDef) -> bool:
    """Does the body call something with a ``**mapping`` expansion?"""
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and any(
            kw.arg is None for kw in node.keywords
        ):
            return True
    return False


def _string_constants(func: ast.FunctionDef) -> Set[str]:
    return {
        node.value
        for node in ast.walk(func)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


@register_rule(
    "RL005",
    "config-serialization",
    "project",
    "every config dataclass field must round-trip through to_dict/from_dict",
)
def rl005_config_serialization(project) -> Iterator[Violation]:
    for relpath in project.config.rl005_files:
        ctx = project.files.get(relpath)
        if ctx is None:
            continue
        for node in ctx.tree.body:
            if not isinstance(node, ast.ClassDef) or not _is_dataclass_decorated(node):
                continue
            field_names = _dataclass_fields(node)
            if not field_names:
                continue
            for method_name in ("to_dict", "from_dict"):
                method = _method(node, method_name)
                if method is None:
                    yield make_violation(
                        relpath,
                        node,
                        "RL005",
                        f"config dataclass {node.name!r} has no {method_name}() "
                        "— every API config must serialise losslessly (PR-2 "
                        "contract: sweeps replay from JSON bit-for-bit)",
                    )
                    continue
                if method_name == "to_dict" and _calls_asdict_self(method):
                    continue  # asdict(self) covers every field by construction
                if method_name == "from_dict" and _expands_kwargs(method):
                    continue  # cls(**data) accepts every field dynamically
                mentioned = _string_constants(method)
                for missing in [f for f in field_names if f not in mentioned]:
                    yield make_violation(
                        relpath,
                        method,
                        "RL005",
                        f"{node.name}.{method_name}() does not cover field "
                        f"{missing!r} — a field added to the dataclass but "
                        "not the serialisers silently drops on round-trip",
                    )
