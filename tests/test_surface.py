"""nplab keeps only the surface its experiments use.

Every public top-level function and class in ``src/nplab`` must be named
(as a ``Name`` or ``Attribute`` node) somewhere that is not a unit test:
in ``src/`` outside its own definition, in ``scripts/``, in ``bench/`` or
in the acceptance criteria (``tests/test_acceptance.py``).  A name that
none of these reach is dead code unless it is listed below with the reason
it stays: an oracle that tests compare nplab against, or a witness of one
of the paper's claims that no experiment runs yet.

Likewise every defaulted parameter of a public top-level function must be
passed, by keyword or by position, by a call in one of those places: an
option that nothing sets is a constant, unless it is listed in
``UNPASSED_OPTIONS`` with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nplab"
USERS = (sorted((ROOT / "src").rglob("*.py"))
         + sorted((ROOT / "scripts").rglob("*.py"))
         + sorted((ROOT / "bench").rglob("*.py"))
         + [ROOT / "tests" / "test_acceptance.py"])

ORACLES = (
    ("polyapprox.equioscillation_count",
     "alternation-theorem check of remez_discrete's minimax witness"),
    ("polyapprox.schedule_spectral_error_exact",
     "mpmath node product that chebyshev_exact_check's closed form is "
     "tested against"),
    ("convcnp.circular_convolve",
     "direct circular convolution the circulant matvecs are tested "
     "against; the bench layers name it"),
)

WITNESSES = (
    ("cnp.ols_moment_encoder",
     "constructive half of the CNP feature claim: finitely many sum-pooled "
     "moments represent OLS exactly"),
)

UNPASSED_OPTIONS = (
    ("cli.main.argv", "None reads sys.argv, as the console entry point "
     "needs; tests pass an argument list"),
)


def _public_definitions():
    """(module.name) of every public top-level function and class."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    not node.name.startswith("_"):
                out.add(f"{path.stem}.{node.name}")
    return out


def _names_in(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _referenced_names():
    """Every name a user file mentions, leaving out the mentions inside a
    top-level definition of that same name (recursion is not a caller)."""
    names = set()
    for path in USERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            found = _names_in(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                found.discard(stmt.name)
            names |= found
    return names


def _kept():
    return dict(ORACLES + WITNESSES)


def test_every_public_name_has_a_caller_or_a_reason():
    used = _referenced_names()
    unused = sorted(q for q in _public_definitions()
                    if q.split(".")[1] not in used and q not in _kept())
    assert not unused, (
        f"public names that no experiment, script, benchmark or acceptance "
        f"criterion uses: {unused}; delete them, or list them in ORACLES or "
        f"WITNESSES with the reason they stay")


def test_kept_names_are_current():
    # a kept name must exist, need keeping (nothing else reaches it) and
    # say why
    defined = _public_definitions()
    used = _referenced_names()
    for qualified, reason in ORACLES + WITNESSES:
        assert qualified in defined, f"{qualified} is not defined"
        assert qualified.split(".")[1] not in used, (
            f"{qualified} has a caller now; drop it from the kept list")
        assert reason.strip(), f"{qualified} needs a reason"
    assert len(_kept()) == len(ORACLES + WITNESSES), "a name is listed twice"



def test_imports_sit_at_the_top_of_their_modules():
    # one place for imports: only mpmath is imported inside a function, so
    # that a command that needs no certificate (nplab list) never loads it
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
                    names = ["." * node.level + (node.module or "")]
                else:
                    continue
                local |= {f"{path.stem}.py:{node.lineno} {name}"
                          for name in names if name != "mpmath"}
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
    for path in USERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
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
