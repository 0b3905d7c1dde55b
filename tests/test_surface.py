"""nplab keeps only the surface its experiments use.

Every public top-level function and class in ``src/nplab`` must be named
(as a ``Name`` or ``Attribute`` node) somewhere that is not a unit test:
in ``src/`` outside its own definition, in ``scripts/``, in ``bench/`` or
in the acceptance criteria (``tests/test_acceptance.py``).  A name that
none of these reach is dead code unless it is listed below with the reason
it stays: an oracle that tests compare nplab against, or a witness of one
of the paper's claims that no experiment runs yet.
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
