"""Every option has a caller: an option nobody sets is a constant.

An option is a field of a ``*Config`` dataclass under ``src/repro``, or a
defaulted parameter of a public function, public-class method or
``__init__`` there.  Each one doubles the configurations the tests and
the benchmark would have to cover.  One that no call outside its own
module sets has a single value in use, so it belongs in a named constant
beside the code that reads it; a value other code only reads by name is
a ``ClassVar``, which is not a field.

A call sets an option only when it reaches that option's callee: the
scan resolves each call's target through imports and aliases (a method
called on an object it cannot type matches every method of that name;
a name unpacked from a registry, every ``register_*``-ed value), then
maps its keywords and positional arguments onto the target's
parameters.  Beyond plain calls it follows ``dataclasses.replace`` (of a
value it can type; an untyped one sets nothing),
``functools.partial(fn, ...)``, a claims-table row ``claim(figure, fn,
...)``, a call through a parameter (to what callers pass for it), a
``**mapping`` built with the key in reach (``dict(k=...)``, ``{"k":
...}``, ``m["k"] = ...``, a helper that returns one, a loop or
``parametrize`` over such dicts), and a ``**kwargs`` parameter passed on
whole.  An argument that is the caller's own defaulted parameter carries
only what sets that parameter.  Inside the option's module only a value
computed from the caller's parameters or locals, or a public preset
function returning the config, counts.  A call inside ``pytest.raises(ConfigError)`` is a range check,
not a setter.  Checked on the source with ``ast``, importing nothing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "bench", "examples")
PACKAGE = "repro"
CLAIM = ("tests.claims", "claim")  # claim(figure, fn, *args, slow=, params=, **shape)


@dataclass(eq=False)
class Callee:
    """A function, method or class constructor the scan can call."""

    module: str
    qualname: str
    params: list[str]  # positional order, ``self`` / ``cls`` dropped
    keyword_only: list[str]
    options: list[str]  # the parameters (or config fields) checked
    var_kw: str | None  # name of the ``**`` parameter, if any
    node: ast.AST | None = None
    public: bool = True

    def accepts(self, name: str) -> bool:
        return name in self.params or name in self.keyword_only


@dataclass(eq=False)
class _Class:
    module: str
    node: ast.ClassDef
    methods: dict[str, Callee] = field(default_factory=dict)
    fields: list[str] | None = None  # dataclass fields, in order
    ctor: Callee | None = None


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _decorator_names(node) -> set[str]:
    names = set()
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute):
            names.add(target.attr)
        elif isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _function(module: str, qualname: str, node, bound: bool, public: bool) -> Callee:
    args = node.args
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]
    if bound and "staticmethod" not in _decorator_names(node):
        positional = positional[1:]
    return Callee(
        module, qualname, positional, [a.arg for a in args.kwonlyargs],
        [a for a in defaulted if not a.startswith("_")],
        args.kwarg.arg if args.kwarg else None, node, public,
    )


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(ROOT).with_suffix("").parts)
    if parts[0] == "src":
        parts = parts[1:]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def repo_sources() -> dict[str, str]:
    """``module name -> source`` for every Python file under ``SEARCHED``."""
    return {
        _module_name(path): path.read_text()
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }


class OptionScan:
    """Which options of ``package`` some call outside their module sets."""

    def __init__(self, sources: dict[str, str], package: str = PACKAGE):
        self.package = package
        self.trees = {name: ast.parse(src, name) for name, src in sources.items()}
        self.packages = {name.rpartition(".")[0] for name in self.trees}
        self.functions: dict[str, dict[str, Callee]] = {}
        self.classes: dict[str, dict[str, _Class]] = {}
        self.imports: dict[str, dict[str, list[tuple]]] = {}
        self.methods_named: dict[str, list[Callee]] = {}
        for name, tree in self.trees.items():
            self._index(name, tree)
        self.registered = [  # what ``register_*(name, value, ...)`` calls bind
            ref
            for name, tree in self.trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).rpartition(".")[2].startswith("register")
            for arg in node.args
            for ref in self.resolve(name, arg)
            if isinstance(ref, (Callee, _Class))
        ]
        self.setters: dict[tuple[Callee, str], set[str]] = {}
        self.edges: set[tuple[Callee, Callee]] = set()
        self.passes: set[tuple[tuple[Callee, str], tuple[Callee, str]]] = set()
        self.assignments: dict[ast.AST, dict[str, list[ast.expr]]] = {}
        self.local_names: dict[ast.AST, set[str]] = {}
        self.bound: dict[tuple[Callee, str], list[tuple[str, ast.expr]]] = {}
        self.dynamic: list[tuple[Callee, str, str, tuple]] = []
        for name, tree in self.trees.items():
            _Calls(self, name).visit(tree)
        for owner, param, module, call in self.dynamic:
            for where, value in self.bound.get((owner, param), ()):
                self.call(self.resolve(where, value), module, call)
        self._propagate()

    # -- index ---------------------------------------------------------------

    def _index(self, module: str, tree: ast.Module) -> None:
        in_package = module == self.package or module.startswith(self.package + ".")
        public_module = not any(
            p.startswith("_") and p != "__main__" for p in module.split(".")
        )
        functions = self.functions[module] = {}
        classes = self.classes[module] = {}
        imports = self.imports[module] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[node.name] = _function(
                    module, node.name, node, False,
                    in_package and public_module and _public(node.name),
                )
            elif isinstance(node, ast.ClassDef):
                cls = classes[node.name] = _Class(module, node)
                public = in_package and public_module and _public(node.name)
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        meth = _function(
                            module, f"{node.name}.{stmt.name}", stmt, True,
                            public and _public(stmt.name)
                            and "property" not in _decorator_names(stmt),
                        )
                        cls.methods[stmt.name] = meth
                        self.methods_named.setdefault(stmt.name, []).append(meth)
                if "dataclass" in _decorator_names(node):
                    cls.fields = [
                        stmt.target.id
                        for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)
                    ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        imports.setdefault(alias.asname, []).append(("module", alias.name))
                    else:
                        top = alias.name.partition(".")[0]
                        imports.setdefault(top, []).append(("module", top))
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = module.split(".")
                    if module not in self.packages:
                        anchor = anchor[:-1]
                    anchor = anchor[: len(anchor) - node.level + 1]
                    base = ".".join([*anchor, *([base] if base else [])])
                for alias in node.names:
                    imports.setdefault(alias.asname or alias.name, []).append(
                        ("from", base, alias.name)
                    )

    def constructor(self, cls: _Class) -> Callee | None:
        """The callee a call to ``cls`` reaches: its (inherited) ``__init__``,
        else its dataclass fields."""
        if cls.ctor is None:
            seen = [cls]
            for klass in seen:
                init = klass.methods.get("__init__")
                if init is not None:
                    cls.ctor = init
                    break
                for base in klass.node.bases:
                    seen += [r for r in self.resolve(klass.module, base) if isinstance(r, _Class)]
            else:
                if cls.fields is None:
                    return None
                public = (
                    cls.module.startswith(self.package)
                    and _public(cls.node.name)
                    and not any(p.startswith("_") for p in cls.module.split("."))
                )
                config = cls.node.name.endswith("Config")
                defaulted = [
                    stmt.target.id
                    for stmt in cls.node.body
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                    and isinstance(stmt.target, ast.Name) and stmt.target.id in cls.fields
                ]
                cls.ctor = Callee(
                    cls.module, cls.node.name, list(cls.fields), [],
                    list(cls.fields) if config else defaulted, None, None,
                    public and config,
                )
        return cls.ctor

    # -- resolution ----------------------------------------------------------

    def lookup(self, module: str, name: str, depth: int = 0) -> list:
        """What ``name`` means at the top level of ``module``."""
        if depth > 8:
            return []
        if module not in self.trees:
            sub = f"{module}.{name}"
            return [("module", sub)] if sub in self.trees else [("external", module, name)]
        if name in self.functions.get(module, {}):
            return [self.functions[module][name]]
        if name in self.classes.get(module, {}):
            return [self.classes[module][name]]
        found = []
        for entry in self.imports.get(module, {}).get(name, []):
            found += self._follow(entry, depth + 1)
        if not found and f"{module}.{name}" in self.trees:
            found.append(("module", f"{module}.{name}"))
        return found

    def _follow(self, entry: tuple, depth: int) -> list:
        if entry[0] == "module":
            return [("module", entry[1])]
        _, base, name = entry
        if f"{base}.{name}" in self.trees:
            return [("module", f"{base}.{name}")]
        return self.lookup(base, name, depth)

    def resolve(self, module: str, expr: ast.expr) -> list:
        """The functions, classes and modules ``expr`` may name in ``module``."""
        if isinstance(expr, ast.Name):
            return self.lookup(module, expr.id)
        if isinstance(expr, ast.Attribute):
            found = []
            for ref in self.resolve(module, expr.value):
                if isinstance(ref, tuple) and ref[0] == "module":
                    found += self.lookup(ref[1], expr.attr)
                elif isinstance(ref, _Class) and expr.attr in ref.methods:
                    found.append(ref.methods[expr.attr])
            return found
        return []

    # -- setters -------------------------------------------------------------

    def call(self, targets, module: str, call, origin=None) -> None:
        """Apply one call ``(args, names, owner, passes_on)`` made in
        ``module`` to each of its ``targets``."""
        args, names, owner, passes_on = call
        for target in targets:
            callee = target
            if isinstance(target, _Class):
                callee = self.constructor(target)
            if not isinstance(callee, Callee):
                continue
            where = origin(owner, target) if origin else module
            self.apply(callee, args, names, where, owner)
            for i, arg in enumerate(args[:len(callee.params)]):
                self.bound.setdefault((callee, callee.params[i]), []).append((module, arg))
            for name, value in names:
                if value is not None:
                    self.bound.setdefault((callee, name), []).append((module, value))
            if passes_on:
                self.edges.add((owner, callee))

    def apply(
        self, callee: Callee, args, keywords, origin: str, owner: Callee | None
    ) -> None:
        """Record what one call with ``args`` / ``keywords`` sets on
        ``callee``; a ``*args`` reaches every parameter from its place on."""
        for i, arg in enumerate(args):
            if isinstance(arg, ast.Starred):
                reached = callee.params[i:]
            else:
                reached = callee.params[i:i + 1]
            for name in reached:
                self.setters.setdefault((callee, name), set()).add(
                    self._origin(owner, arg, callee, name, origin)
                )
        for name, value in keywords:
            self.set_keyword(callee, name, self._origin(owner, value, callee, name, origin))

    def _origin(self, owner, value, callee, name, origin) -> str:
        """Where ``value`` reaching ``callee``'s ``name`` comes from.

        A parameter of the calling ``owner`` passes on whatever sets that
        parameter.  Inside the callee's own module a value computed from
        the caller's parameters or locals shows the option varies (a
        constant there is only a second constant), so it counts as a
        setter of its own."""
        if value is None or isinstance(value, ast.Starred):
            return origin
        if owner is not None and isinstance(value, ast.Name) and owner.accepts(value.id):
            self.passes.add(((owner, value.id), (callee, name)))
            if value.id in owner.options:  # a default passed on is no setter
                return f"{origin}:passes"
            return origin
        if origin == callee.module and owner is not None and any(
            isinstance(n, ast.Name) and n.id in self._locals(owner.node)
            for n in ast.walk(value)
        ):
            return f"{origin}:run-time"
        return origin

    def _locals(self, func: ast.AST) -> set[str]:
        """The parameters and assigned names of ``func``."""
        if func not in self.local_names:
            self.local_names[func] = {
                n.arg if isinstance(n, ast.arg) else n.id
                for n in ast.walk(func)
                if isinstance(n, ast.arg)
                or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
        return self.local_names[func]

    def set_keyword(self, callee: Callee, name: str, origin: str) -> bool:
        """Record ``origin`` setting ``name`` on ``callee`` (held for its
        ``**`` parameter when it has no such name); ``True`` if new."""
        if not callee.accepts(name) and callee.var_kw is None:
            return False
        origins = self.setters.setdefault((callee, name), set())
        if origin in origins:
            return False
        origins.add(origin)
        return True

    def _propagate(self) -> None:
        """Pass forwarded keywords and passed-on parameters on, to a fixpoint."""
        passes: dict[tuple[Callee, str], list[tuple[Callee, str]]] = {}
        for source, target in self.passes:
            passes.setdefault(source, []).append(target)
        edges: dict[Callee, list[Callee]] = {}
        for source, target in self.edges:
            edges.setdefault(source, []).append(target)
        work = [(key, o) for key, origins in self.setters.items() for o in origins]
        while work:
            (callee, name), origin = work.pop()
            reached = list(passes.get((callee, name), ()))
            if callee.var_kw is not None and not callee.accepts(name):
                reached += [(target, name) for target in edges.get(callee, ())]
            for target, param in reached:
                if self.set_keyword(target, param, origin):
                    work.append(((target, param), origin))

    def options(self) -> list[tuple[Callee, str]]:
        """Every checked option under the package."""
        callees = [
            c for m in self.functions.values() for c in m.values()
        ] + [
            c for m in self.classes.values() for k in m.values() for c in k.methods.values()
        ] + [
            ctor for m in self.classes.values() for k in m.values()
            if k.fields is not None and (ctor := self.constructor(k)) is not None
            and ctor.node is None
        ]
        return [
            (c, name) for c in callees if c.public
            and (c.module == self.package or c.module.startswith(self.package + "."))
            for name in c.options
        ]

    def unset(self) -> list[str]:
        """``module: Callee.option`` for every option no other module sets."""
        return sorted(
            f"{c.module}: {c.qualname}.{name}"
            for c, name in self.options()
            if not {o for o in self.setters.get((c, name), set()) if not o.endswith(":passes")} - {c.module}
        )


class _Calls(ast.NodeVisitor):
    """Walks one module, recording the options each call sets."""

    def __init__(self, scan: OptionScan, module: str):
        self.scan = scan
        self.module = module
        self.scopes: list[ast.AST] = [scan.trees[module]]
        self.parents: list[ast.AST] = [scan.trees[module]]
        self.owners: list[Callee | None] = [None]
        self.klass: list[_Class | None] = [None]
        self.range_check = 0

    def visit_ClassDef(self, node):
        self.klass.append(self.scan.classes[self.module].get(node.name))
        self.parents.append(node)
        self.generic_visit(node)
        self.parents.pop()
        self.klass.pop()

    def visit_FunctionDef(self, node):
        parent, owner = self.parents[-1], None
        if isinstance(parent, ast.Module):
            owner = self.scan.functions[self.module].get(node.name)
        elif isinstance(parent, ast.ClassDef) and self.klass[-1] is not None:
            owner = self.klass[-1].methods.get(node.name)
        if owner is None or owner.node is not node:
            owner = _function(self.module, node.name, node, False, False)
        self.parents.append(node)
        self.scopes.append(node)
        self.owners.append(owner)
        self.generic_visit(node)
        self.owners.pop()
        self.scopes.pop()
        self.parents.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_With(self, node):
        checks = sum(
            isinstance(item.context_expr, ast.Call)
            and ast.unparse(item.context_expr.func).endswith("raises")
            and "ConfigError" in ast.unparse(item.context_expr)
            for item in node.items
        )
        self.range_check += checks
        self.generic_visit(node)
        self.range_check -= checks

    def visit_Call(self, node):
        self.generic_visit(node)
        if self.range_check:
            return
        args, keywords = list(node.args), list(node.keywords)
        targets = self.targets(node.func)
        for ref in list(targets):
            if isinstance(ref, tuple) and ref[0] == "external":
                if ref[1:] == ("functools", "partial") and args:
                    targets = self.targets(args[0])
                    args = args[1:]
                elif ref[1:] == ("dataclasses", "replace") and args:
                    targets = self.value_classes(args[0], 0)
                    args = []
        if any(
            isinstance(t, Callee) and (t.module, t.qualname) == CLAIM for t in targets
        ) and len(args) > 1:
            params = any(k.arg == "params" for k in keywords)
            targets = self.targets(args[1])
            args = [ast.Constant(None)] * params + args[2:]
            keywords = [k for k in keywords if k.arg not in ("slow", "params")]
        names, owner = [], self.owners[-1]
        passes_on = False
        for kw in keywords:
            if kw.arg is not None:
                names.append((kw.arg, kw.value))
            elif (
                owner is not None and owner.var_kw is not None
                and isinstance(kw.value, ast.Name) and kw.value.id == owner.var_kw
            ):
                passes_on = True
            else:
                names += [(k, None) for k in self.mapping_keys(kw.value, 0)]
        call = (args, names, owner, passes_on)
        if not targets and isinstance(node.func, ast.Name) and owner is not None \
                and owner.accepts(node.func.id):
            # A call through a parameter reaches what its callers bind to it.
            self.scan.dynamic.append((owner, node.func.id, self.module, call))
        self.scan.call(targets, self.module, call, self.origin)

    def origin(self, owner: Callee | None, target) -> str:
        """Where a call comes from: its module, or the public preset function
        (annotated to return the class it builds) that makes it."""
        returns = getattr(getattr(owner, "node", None), "returns", None)
        if (
            owner is not None and owner.public and "." not in owner.qualname
            and returns is not None and target in self.scan.resolve(self.module, returns)
        ):
            return f"{self.module}:{owner.qualname}"
        return self.module

    def value_classes(self, expr: ast.expr, depth: int) -> list[_Class]:
        """The dataclasses ``expr`` may be an instance of, where the source says."""
        if depth > 4:
            return []
        found: list = []
        if isinstance(expr, ast.Call):
            for ref in self.targets(expr.func):
                if isinstance(ref, _Class):
                    found.append(ref)
                elif isinstance(ref, Callee) and getattr(ref.node, "returns", None):
                    found += self.scan.resolve(ref.module, ref.node.returns)
        elif isinstance(expr, ast.Name):
            if expr.id == "self" and self.klass[-1] is not None:
                return [self.klass[-1]]
            for scope in self.scopes[1:]:
                for arg in (*scope.args.args, *scope.args.kwonlyargs):
                    if arg.arg == expr.id and arg.annotation is not None:
                        found += self.scan.resolve(self.module, arg.annotation)
            for value in self.assigned(expr.id):
                found += self.value_classes(value, depth + 1)
        return [c for c in found if isinstance(c, _Class) and c.fields is not None]

    def assigned(self, name: str) -> list[ast.expr]:
        """The values ``name`` is assigned (or unpacked from) in scope."""
        values = []
        for scope in self.scopes:
            if scope not in self.scan.assignments:
                found = self.scan.assignments[scope] = {}
                for node in ast.walk(scope):
                    if isinstance(node, ast.Assign):
                        for target in node.targets:
                            for n in target.elts if isinstance(target, ast.Tuple) else [target]:
                                if isinstance(n, ast.Name):
                                    found.setdefault(n.id, []).append(node.value)
            values += self.scan.assignments[scope].get(name, [])
        return values

    def targets(self, func: ast.expr) -> list:
        """What a call to ``func`` may reach."""
        found = self.scan.resolve(self.module, func)
        if not found and isinstance(func, ast.Name) and any(
            isinstance(node, ast.Subscript)
            for value in self.assigned(func.id) for node in ast.walk(value)
        ):
            return list(self.scan.registered)  # unpacked from a registry
        if found or not isinstance(func, ast.Attribute):
            return found
        value = func.value
        if (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "super" and self.klass[-1] is not None
        ):
            bases = [
                r for b in self.klass[-1].node.bases
                for r in self.scan.resolve(self.module, b) if isinstance(r, _Class)
            ]
            for base in bases:
                if func.attr == "__init__":
                    ctor = self.scan.constructor(base)
                    return [ctor] if ctor else []
                if func.attr in base.methods:
                    return [base.methods[func.attr]]
            return []
        if func.attr == "__init__":
            return []
        return list(self.scan.methods_named.get(func.attr, []))

    def mapping_keys(self, expr: ast.expr, depth: int) -> list[str]:
        """The string keys a ``**expr`` mapping may carry."""
        if depth > 6:
            return []
        keys: list[str] = []
        if isinstance(expr, ast.Dict):
            for key, value in zip(expr.keys, expr.values):
                if key is None:
                    keys += self.mapping_keys(value, depth + 1)
                elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.append(key.value)
        elif isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            for elt in expr.elts:
                keys += self.mapping_keys(elt, depth + 1)
        elif isinstance(expr, ast.IfExp):
            keys += self.mapping_keys(expr.body, depth + 1)
            keys += self.mapping_keys(expr.orelse, depth + 1)
        elif isinstance(expr, ast.BinOp):
            keys += self.mapping_keys(expr.left, depth + 1)
            keys += self.mapping_keys(expr.right, depth + 1)
        elif isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id == "dict":
                keys += [k.arg for k in expr.keywords if k.arg is not None]
                for arg in [*expr.args, *(k.value for k in expr.keywords if k.arg is None)]:
                    keys += self.mapping_keys(arg, depth + 1)
            elif ast.unparse(func).endswith("param"):  # pytest.param(dict(...), id=...)
                for arg in expr.args:
                    keys += self.mapping_keys(arg, depth + 1)
            else:
                for ref in self.targets(func):
                    if isinstance(ref, Callee) and ref.node is not None:
                        for ret in ast.walk(ref.node):
                            if isinstance(ret, ast.Return) and ret.value is not None:
                                keys += self.mapping_keys(ret.value, depth + 1)
        elif isinstance(expr, ast.Name):
            keys += self._name_keys(expr.id, depth)
        return keys

    def _name_keys(self, name: str, depth: int) -> list[str]:
        keys: list[str] = []
        for scope in self.scopes:
            body = scope.body if isinstance(scope, ast.Module) else [scope]
            for top in body:
                for node in ast.walk(top):
                    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                        for target in targets:
                            if isinstance(target, ast.Name) and target.id == name and node.value:
                                keys += self.mapping_keys(node.value, depth + 1)
                            elif (
                                isinstance(target, ast.Subscript)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == name
                                and isinstance(target.slice, ast.Constant)
                            ):
                                keys.append(target.slice.value)
                    elif (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == name
                    ):
                        if node.func.attr == "setdefault" and node.args:
                            if isinstance(node.args[0], ast.Constant):
                                keys.append(node.args[0].value)
                        elif node.func.attr == "update":
                            keys += [k.arg for k in node.keywords if k.arg]
                            for arg in node.args:
                                keys += self.mapping_keys(arg, depth + 1)
                    elif (
                        isinstance(node, (ast.For, ast.comprehension))
                        and isinstance(node.target, ast.Name)
                        and node.target.id == name
                    ):
                        keys += self.mapping_keys(node.iter, depth + 1)
            if isinstance(scope, ast.FunctionDef):
                keys += self._parametrized(scope, name, depth)
        return [k for k in keys if isinstance(k, str)]

    def _parametrized(self, func: ast.FunctionDef, name: str, depth: int) -> list[str]:
        keys: list[str] = []
        for deco in func.decorator_list:
            if not (
                isinstance(deco, ast.Call) and ast.unparse(deco.func).endswith("parametrize")
                and len(deco.args) >= 2 and isinstance(deco.args[0], ast.Constant)
            ):
                continue
            names = [n.strip() for n in str(deco.args[0].value).split(",")]
            if name not in names:
                continue
            at = names.index(name)
            rows = deco.args[1].elts if isinstance(deco.args[1], (ast.List, ast.Tuple)) else []
            for row in rows:
                if len(names) > 1 and isinstance(row, ast.Tuple) and at < len(row.elts):
                    row = row.elts[at]
                keys += self.mapping_keys(row, depth + 1)
        return keys


# -- the repository ----------------------------------------------------------


def test_every_option_is_set_outside_its_module():
    scan = OptionScan(repo_sources())
    configs = [c for c, _ in scan.options() if c.qualname.endswith("Config")]
    assert len(configs) > 50, "the scan found too few config fields to mean anything"
    assert len(scan.options()) > 400, "the scan found too few options to mean anything"
    unset = scan.unset()
    assert not unset, (
        "options no caller outside their module sets (make each a constant "
        "beside its reader, or a ClassVar where other code reads it by "
        "name):\n  " + "\n  ".join(unset)
    )


# -- the scan itself, on snippets --------------------------------------------

LIB = '''
from dataclasses import dataclass

@dataclass
class LinkConfig:
    alpha: float = 0.5
    planted: int = 3
    renamed: int = 1
    replaced: int = 2

class Estimator:
    def __init__(self, alpha=0.1, beta=0.2):
        self.alpha = alpha

def run(size, *, m=8, k=32, chunk=4, spread=1, gap=0, mapped=0, returned=0,
        hop=0, lap=0, still=0):
    return size

def make(name, **knobs):
    return Estimator(**knobs)

def probe(x, *, depth=1):
    return x

def wrap(x, *, depth=1):                 # passes its own default on
    return probe(x, depth=depth)

def again(x):
    return run(x, lap=x + 1, still=3)    # run-time value, then a literal
'''

USER = '''
import dataclasses
from functools import partial
from pkg.lib import Estimator, LinkConfig, make, probe, run as go
from tests.claims import claim

Estimator(alpha=0.3)                     # another callee's alpha
LinkConfig(renamed=2)
dataclasses.replace(LinkConfig(), replaced=4)
go(1, m=4)                               # through an import alias
partial(go, 1, k=16)
claim("Figure 1", go, 2, chunk=8)
opts = dict(spread=2)
go(3, **opts)
go(3, **{"gap": 1})

def _kw():
    return dict(returned=1)

go(4, **_kw())
table = {}
table["mapped"] = 5
go(5, **table)
make("est", beta=0.4)                    # forwarded through **knobs

def drive(fn, **kw):
    return fn(1, **kw)

drive(go, hop=2)                         # through a parameter
wrap(2)
'''

CHECK = '''
import pytest
from pkg.lib import probe
from repro_errors import ConfigError

def test_range():
    with pytest.raises(ConfigError):
        probe(1, depth=-1)
'''

CLAIMS = '''
from functools import partial

def claim(figure, fn, *args, slow=True, params=(), **shape):
    return partial(fn, *args, **shape)
'''


UNTYPED = '''
import dataclasses

def tweak(cfg):
    return dataclasses.replace(cfg, planted=9)
'''


def _scan(**sources) -> list[str]:
    return OptionScan(
        {"pkg.lib": LIB, "tests.claims": CLAIMS, **sources}, package="pkg"
    ).unset()


def test_scan_resolves_every_setter_rule():
    unset = _scan(**{"tests.user": USER})
    # alias, partial, claim, dict(), {}, returned mapping, subscript-built
    # mapping, **knobs forwarding, replace, a call through a parameter and
    # a run-time value in the option's own module all set; a default
    # passed on and a literal in the own module do not.
    for name in (
        "run.m", "run.k", "run.chunk", "run.spread", "run.gap", "run.mapped",
        "run.returned", "Estimator.__init__.beta", "LinkConfig.renamed",
        "LinkConfig.replaced", "Estimator.__init__.alpha", "run.hop", "run.lap",
    ):
        assert f"pkg.lib: {name}" not in unset, name
    for name in ("LinkConfig.planted", "wrap.depth", "probe.depth", "run.still"):
        assert f"pkg.lib: {name}" in unset, name


def test_scan_matches_by_callee_not_by_name():
    # ``Estimator(alpha=...)`` does not set ``LinkConfig.alpha``: the name
    # match this scan replaced counted it.
    assert "pkg.lib: LinkConfig.alpha" in _scan(**{"tests.user": USER})


def test_untyped_replace_sets_no_field():
    # ``replace`` on a value the scan cannot type reaches no class; it does
    # not count for every dataclass that has a field of that name.
    assert "pkg.lib: LinkConfig.planted" in _scan(**{"tests.untyped": UNTYPED})


def test_range_check_alone_is_not_a_setter():
    unset = _scan(**{"tests.check": CHECK})
    assert "pkg.lib: probe.depth" in unset
    assert "pkg.lib: run.m" in unset
