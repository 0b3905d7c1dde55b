"""nplab keeps only the surface its experiments use.

Every public top-level function and class in ``src/nplab``, and every
public method and property of a public class, must be named (as a ``Name``
or ``Attribute`` node) somewhere that is not a unit test: in ``src/``
outside its own definition, in ``scripts/``, in ``bench/`` or in the
acceptance criteria (``tests/test_acceptance.py``).  A name that none of
these reach is dead code unless it is listed below with the reason it
stays: an oracle that tests compare nplab against, or a witness of one of
the paper's claims that no experiment runs yet.

Likewise every defaulted parameter of a public top-level function must be
passed, by keyword or by position, by a call in one of those places: an
option that nothing sets is a constant, unless it is listed in
``UNPASSED_OPTIONS`` with the reason it stays.

Results follow the same rule.  Every field of a public dataclass must be
read as an attribute in one of those places (by name: any attribute read
of that name counts), and every string key of a dict that a public
top-level function returns must be read from that function's result
there, as ``x["key"]`` or ``x.get("key")``, unless the key is listed in
``READ_BY_TESTS`` with the reason it stays.  Keys are traced to the call
that returned them, because a name such as ``params["n"]`` is read
everywhere.

The command line follows it too.  Every ``--option`` that ``cli.py``
declares must appear as a string in ``bench/``, ``scripts/`` or the
acceptance criteria, other than in an ``add_argument`` call (a script
declaring a flag of the same name does not use nplab's), unless it is
listed in ``UNUSED_FLAGS`` with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nplab"
FLAG_USERS = (sorted((ROOT / "scripts").rglob("*.py"))
              + sorted((ROOT / "bench").rglob("*.py"))
              + [ROOT / "tests" / "test_acceptance.py"])
USERS = sorted((ROOT / "src").rglob("*.py")) + FLAG_USERS

ORACLES = (
    ("polyapprox.equioscillation_count",
     "alternation-theorem check of remez_discrete's minimax witness"),
    ("polyapprox.schedule_spectral_error_exact",
     "mpmath node product that chebyshev_exact_check's closed form is "
     "tested against"),
    ("convcnp.circular_convolve",
     "the circulant matvec as one call: the convolution stack that "
     "grid_forward_map is tested against bit for bit, and the bench "
     "layers name it"),
)

WITNESSES = (
    ("cnp.ols_moment_encoder",
     "constructive half of the CNP feature claim: finitely many sum-pooled "
     "moments represent OLS exactly"),
)

READ_BY_TESTS = (
    ("tnp.tnp_gp_pipeline.oracle",
     "exact posterior mean, which tests compare with an independent dense "
     "solve; the report keeps only its distance from the prediction"),
    ("convcnp.grid_cnn_gp.oracle",
     "per-frequency exact solve, which tests compare with a dense solve of "
     "the circulant Gram"),
    ("convcnp.grid_cnn_gp.prediction",
     "the grid CNN's own output, which tests hold shift-equivariant; the "
     "report keeps only its distance from the oracle"),
)

UNPASSED_OPTIONS = (
    ("cli.main.argv", "None reads sys.argv, as the console entry point "
     "needs; tests pass an argument list"),
)

UNUSED_FLAGS = ()


def _public_classes(tree):
    return [node for node in tree.body if isinstance(node, ast.ClassDef)
            and not node.name.startswith("_")]


def _public_definitions():
    """module.name of every public top-level function and class, and
    module.Class.name of every public method and property of a public
    class."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    not node.name.startswith("_"):
                out.add(f"{path.stem}.{node.name}")
        out |= {f"{path.stem}.{cls.name}.{node.name}"
                for cls in _public_classes(tree) for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")}
    return out


def _names_in(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _mentions(node, inside=frozenset()) -> set:
    """The names in node, leaving out each mention that sits inside a
    definition of that same name (recursion is not a caller)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    found = set()
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = node.id if isinstance(node, ast.Name) else node.attr
        if name not in inside:
            found.add(name)
    for child in ast.iter_child_nodes(node):
        found |= _mentions(child, inside)
    return found


def _user_trees():
    return [ast.parse(path.read_text(encoding="utf-8")) for path in USERS]


def _referenced_names():
    """Every name a user file mentions outside a definition of that same
    name."""
    names = set()
    for tree in _user_trees():
        names |= _mentions(tree)
    return names


def _kept():
    return dict(ORACLES + WITNESSES)


def test_every_public_name_has_a_caller_or_a_reason():
    used = _referenced_names()
    unused = sorted(q for q in _public_definitions()
                    if q.rsplit(".", 1)[1] not in used and q not in _kept())
    assert not unused, (
        f"public names, methods and properties that no experiment, "
        f"script, benchmark or acceptance criterion uses: {unused}; delete "
        f"them, or list them in ORACLES or WITNESSES with the reason they "
        f"stay")


def test_kept_names_are_current():
    # a kept name must exist, need keeping (nothing else reaches it) and
    # say why
    defined = _public_definitions()
    used = _referenced_names()
    for qualified, reason in ORACLES + WITNESSES:
        assert qualified in defined, f"{qualified} is not defined"
        assert qualified.rsplit(".", 1)[1] not in used, (
            f"{qualified} has a caller now; drop it from the kept list")
        assert reason.strip(), f"{qualified} needs a reason"
    assert len(_kept()) == len(ORACLES + WITNESSES), "a name is listed twice"



def _is_dataclass(cls) -> bool:
    return any("dataclass" in _names_in(decorator)
               for decorator in cls.decorator_list)


def _dataclass_fields():
    """module.Class.field of every field of a public dataclass."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out |= {f"{path.stem}.{cls.name}.{node.target.id}"
                for cls in _public_classes(tree) if _is_dataclass(cls)
                for node in cls.body if isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)}
    return out


def test_every_dataclass_field_is_read():
    read = {node.attr for tree in _user_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = sorted(q for q in _dataclass_fields()
                    if q.rsplit(".", 1)[1] not in read)
    assert not unread, (
        f"dataclass fields that no experiment, script, benchmark or "
        f"acceptance criterion reads: {unread}; stop computing them")


def _key(node):
    """The string a constant subscript or dict key holds, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _returned_keys(function) -> set:
    """String keys of the dicts a function returns: a returned display,
    the element of a returned list comprehension, and what is written into
    a returned name by ``out = {...}``, ``out[...] =`` or
    ``out.update({...})``."""
    names, displays, keys = set(), [], set()
    for node in ast.walk(function):
        if isinstance(node, ast.Return) and node.value is not None:
            value = node.value
            if isinstance(value, ast.ListComp):
                value = value.elt
            if isinstance(value, ast.Dict):
                displays.append(value)
            elif isinstance(value, ast.Name):
                names.add(value.id)
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names \
                        and isinstance(node.value, ast.Dict):
                    displays.append(node.value)
                if isinstance(target, ast.Subscript) and \
                        _names_in(target.value) & names:
                    keys.add(_key(target.slice))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "update" and \
                _names_in(node.func.value) & names:
            displays += [a for a in node.args if isinstance(a, ast.Dict)]
    keys |= {_key(k) for display in displays for k in display.keys}
    return keys - {None}


def _result_keys():
    """module.function.key of every string key a public top-level function
    returns."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out |= {f"{path.stem}.{node.name}.{key}" for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")
                for key in _returned_keys(node)}
    return out


def _callee(node):
    """The name a call calls, else None."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def _keys_read(trees) -> set:
    """function.key of every key read from a function's result: by a
    subscript or ``.get`` on the call itself, or on a name that an
    assignment, a ``for`` loop or an unpacking in the same top-level
    statement binds to the call's result (or its elements)."""
    read = set()
    for tree in trees:
        for stmt in tree.body:
            bound = {}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign):
                    pairs = [(t, node.value) for t in node.targets]
                elif isinstance(node, (ast.For, ast.comprehension)):
                    pairs = [(node.target, node.iter)]
                else:
                    continue
                for target, value in pairs:
                    callee = _callee(value)
                    if callee is None:
                        continue
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            bound.setdefault(name.id, set()).add(callee)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Subscript):
                    source, key = node.value, _key(node.slice)
                elif isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr == "get" and node.args:
                    source, key = node.func.value, _key(node.args[0])
                else:
                    continue
                if key is None:
                    continue
                if _callee(source) is not None:
                    callees = {_callee(source)}
                elif isinstance(source, ast.Name):
                    callees = bound.get(source.id, set())
                else:
                    callees = set()
                read |= {f"{callee}.{key}" for callee in callees}
    return read


def _unread_keys():
    read = _keys_read(_user_trees())
    return sorted(q for q in _result_keys()
                  if q.split(".", 1)[1] not in read)


def test_every_result_key_is_read_or_listed():
    kept = dict(READ_BY_TESTS)
    unread = [q for q in _unread_keys() if q not in kept]
    assert not unread, (
        f"result keys that no experiment, script, benchmark or acceptance "
        f"criterion reads: {unread}; stop computing them, or list them in "
        f"READ_BY_TESTS with the reason they stay")


def test_keys_read_by_tests_are_current():
    # a listed key must be returned, read by no user file, read by a test
    # and say why
    unread = set(_unread_keys())
    tests = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "tests").glob("test_*.py"))]
    read_by_tests = _keys_read(tests)
    for qualified, reason in READ_BY_TESTS:
        assert qualified in unread, (
            f"{qualified} is not an unread result key; drop it from the "
            f"list")
        assert qualified.split(".", 1)[1] in read_by_tests, (
            f"{qualified}: no test reads it")
        assert reason.strip(), f"{qualified} needs a reason"
    assert len(dict(READ_BY_TESTS)) == len(READ_BY_TESTS), \
        "a key is listed twice"


def test_imports_sit_at_the_top_of_their_modules():
    # one place for imports: two are made inside a function, so that a
    # command that needs neither (nplab list) loads neither: mpmath, for
    # the certificates, and lab's import of the runners, which brings numpy
    # and the compute modules with it
    local = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = ["." * node.level + (node.module or alias.name)
                             for alias in node.names]
                else:
                    continue
                local |= {f"{path.stem}.py:{node.lineno} {name}"
                          for name in names if name != "mpmath"
                          and (path.stem, name) != ("lab", ".runners")}
    assert not local, f"imports inside a function body: {sorted(local)}"


def test_only_kernels_names_eval_kernel():
    # one kernel path: every other module takes its kernel values from
    # kernel_matrix or cross_vector, so only kernels may name or import
    # the scalar eval_kernel
    naming = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {a.name for n in ast.walk(tree)
                    if isinstance(n, (ast.Import, ast.ImportFrom))
                    for a in n.names}
        if path.stem != "kernels" and "eval_kernel" in \
                _names_in(tree) | imported:
            naming.append(path.stem)
    assert not naming, f"modules that name eval_kernel: {naming}"


# the functions that may read a PolySchedule's coefficients: the one
# float64 applier, the depth search's scalar residual and the mpmath oracle
SCHEDULE_READERS = {"polyapprox.apply_schedule", "polyapprox.depth_to_target",
                    "polyapprox.schedule_spectral_error_exact"}


def test_only_the_appliers_read_schedule_coefficients():
    # one way to apply a schedule: every other module applies it through
    # apply_schedule and never takes its polynomial apart
    reading = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if any(isinstance(n, ast.Attribute) and n.attr == "coefficients"
                   for n in ast.walk(node)):
                reading.add(f"{path.stem}.{getattr(node, 'name', '?')}")
    assert reading <= SCHEDULE_READERS, \
        f"schedule coefficients read in {sorted(reading - SCHEDULE_READERS)}"


def _defaulted_parameters():
    """(module.function.parameter, position) of every parameter with a
    default of a public top-level function; position is None for a
    keyword-only parameter."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or \
                    node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            out += [(f"{path.stem}.{node.name}.{arg.arg}", i)
                    for i, arg in enumerate(positional) if i >= first]
            out += [(f"{path.stem}.{node.name}.{arg.arg}", None)
                    for arg, default in zip(args.kwonlyargs,
                                            args.kw_defaults)
                    if default is not None]
    return out


def _passed_arguments():
    """Callee name -> (keywords passed, most positional arguments passed)
    over every call in a user file, leaving out the calls inside the
    callee's own top-level definition."""
    passed = {}
    for tree in _user_trees():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else
                        None)
                if name is None or name == own:
                    continue
                keywords, most = passed.get(name, (set(), 0))
                passed[name] = (keywords | {k.arg for k in node.keywords},
                                max(most, len(node.args)))
    return passed


def _unpassed_options():
    passed = _passed_arguments()
    unpassed = []
    for qualified, position in _defaulted_parameters():
        function, parameter = qualified.split(".")[1:]
        keywords, most = passed.get(function, (set(), 0))
        if parameter not in keywords and \
                (position is None or most <= position):
            unpassed.append(qualified)
    return unpassed


def test_every_option_has_a_caller_or_a_reason():
    kept = dict(UNPASSED_OPTIONS)
    unpassed = [q for q in _unpassed_options() if q not in kept]
    assert not unpassed, (
        f"defaulted parameters that no experiment, script, benchmark or "
        f"acceptance criterion passes: {unpassed}; make them constants, or "
        f"list them in UNPASSED_OPTIONS with the reason they stay")


def test_unpassed_options_are_current():
    # a listed option must exist, still have no caller and say why
    unpassed = set(_unpassed_options())
    for qualified, reason in UNPASSED_OPTIONS:
        assert qualified in unpassed, (
            f"{qualified} is not an unpassed option; drop it from the list")
        assert reason.strip(), f"{qualified} needs a reason"
    assert len(dict(UNPASSED_OPTIONS)) == len(UNPASSED_OPTIONS), \
        "an option is listed twice"


def _declarations(tree) -> list:
    """The first argument of every ``add_argument`` call that has one."""
    return [node.args[0] for node in ast.walk(tree)
            if _callee(node) == "add_argument" and node.args]


def _unused_flags():
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    declared = {_key(node) for node in _declarations(cli)}
    flags = {flag for flag in declared if flag and flag.startswith("--")}
    used = set()
    for path in FLAG_USERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {id(node) for node in _declarations(tree)}
        used |= {_key(node) for node in ast.walk(tree) if id(node) not in own}
    return sorted(flags - used)


def test_every_cli_flag_has_a_user_or_a_reason():
    kept = dict(UNUSED_FLAGS)
    unused = [flag for flag in _unused_flags() if flag not in kept]
    assert not unused, (
        f"CLI flags that no script, benchmark or acceptance criterion "
        f"passes: {unused}; remove them, or list them in UNUSED_FLAGS with "
        f"the reason they stay")


def test_unused_flags_are_current():
    # a listed flag must be declared, still have no user and say why
    unused = set(_unused_flags())
    for flag, reason in UNUSED_FLAGS:
        assert flag in unused, (
            f"{flag} is not an unused flag; drop it from the list")
        assert reason.strip(), f"{flag} needs a reason"
    assert len(dict(UNUSED_FLAGS)) == len(UNUSED_FLAGS), \
        "a flag is listed twice"
