"""Every name a package module imports is used there or re-exported, and
the leave-one-out stages import nothing lazily."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recinfluence

MODULES = sorted(Path(recinfluence.__file__).parent.glob("*.py"))
# cli binds top_items without calling it: the benchmark's tracer test checks
# that every binding of a traced function is wrapped, cli's included
KEPT = {("cli.py", "top_items")}


def unused_imports(source: str) -> set[str]:
    """Names bound by the imports of ``source`` that no expression reads
    and ``__all__`` does not list."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return bound - read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = {name for name in unused_imports(path.read_text("utf-8"))
              if (path.name, name) not in KEPT}
    assert not unused, f"{path.name} imports {sorted(unused)} without use"


def test_cli_leaves_the_features_inputs_to_features():
    # extract_all builds the similarity matrix, kNN fit and lists itself
    source = (MODULES[0].parent / "cli.py").read_text("utf-8")
    imported = {alias.asname or alias.name
                for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"train_knn", "top_lists", "user_similarity_matrix"}


def test_detects_an_unused_import():
    source = ("import json\nfrom os import path, sep\n"
              "__all__ = ['sep']\nprint(json)\n")
    assert unused_imports(source) == {"path"}


def defined_names(source: str) -> set[tuple[str, str]]:
    """(qualified name, name) of each public function ``source`` defines at
    module level, and of each public method and property of its classes."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            out |= {(f"{node.name}.{fn.name}", fn.name) for fn in node.body
                    if isinstance(fn, ast.FunctionDef)
                    and not fn.name.startswith("_")}
        elif isinstance(node, ast.FunctionDef) and \
                not node.name.startswith("_"):
            out.add((node.name, node.name))
    return out


def named(source: str) -> set[str]:
    """The names ``source`` reads, looks up as attributes or imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
    return out


def unreached(defining: list[str], readers: list[str]) -> set[str]:
    """The public names ``defining`` sources define that no source of
    ``defining`` or ``readers`` names outside a definition; ``cmd_*``,
    which ``cli.main`` dispatches by name, and ``main``, the console
    script, are exempt."""
    reached = set().union(*map(named, defining + readers))
    return {full for source in defining
            for full, name in defined_names(source)
            if name not in reached and name != "main"
            and not name.startswith("cmd_")}


ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_is_reached():
    # __init__ only re-exports; a name that the stages, the acceptance
    # suite and the benchmark never name is test-only code
    defining = [path.read_text("utf-8") for path in MODULES
                if path.name != "__init__.py"]
    readers = [path.read_text("utf-8") for path in
               [ROOT / "tests" / "test_acceptance.py",
                *sorted((ROOT / "bench").glob("*.py"))]]
    assert not unreached(defining, readers)


def test_detects_an_unreached_name():
    defining = ["def used():\n    pass\n\ndef unused():\n    used()\n\n"
                "def cmd_x():\n    pass\n\ndef main():\n    pass\n\n"
                "class A:\n    def run(self):\n        pass\n\n"
                "    @property\n    def size(self):\n        return 0\n\n"
                "    def _private(self):\n        pass\n"]
    readers = ["from m import A\nA().size\n"]
    assert unreached(defining, readers) == {"unused", "A.run"}


def test_kept_names_are_still_imported_unused():
    for name, kept in KEPT:
        source = (MODULES[0].parent / name).read_text("utf-8")
        assert kept in unused_imports(source)


# A stage's traced allocation peak counts the modules it imports: the first
# np.unique, np.quantile or float np.median imports numpy.ma (about 1 MB).
# Every stage runs here in one process, and the first stage after which
# numpy.ma is loaded is printed: ingest samples users and items, features
# resolves epsilon from its quantile, and report takes the median of the
# influence.csv beside it.
LAZY_IMPORT_RUN = """
import sys
from recinfluence.cli import main
rows = [f"u{u},i{(u * 7 + j * 3) % 40},{(u + j) % 5 + 1}"
        for u in range(30) for j in range(6)]
with open("ratings.csv", "w") as fh:
    fh.write("\\n".join(rows) + "\\n")
knn = ["--algo", "knn", "--k", "5", "--l", "3"]
stages = [
    ["ingest", "--input", "ratings.csv", "--format", "csv",
     "--sample-users", "26", "--sample-items", "36"],
    ["influence", "--dataset", "dataset.tsv", *knn, "--top-k", "3,10"],
    ["influence", "--dataset", "dataset.tsv", "--algo", "nmf",
     "--factors", "3", "--iters", "5", "--l", "3", "--top-k", "3,10",
     "--out-dir", "nmf"],
    ["features", "--dataset", "dataset.tsv", *knn],
    ["fit-tree", "--features", "features.csv", "--influence",
     "influence.csv"],
    ["mds", "--dataset", "dataset.tsv", "--influence", "influence.csv",
     "--refine-iters", "5"],
    ["report"],
]
for argv in stages:
    assert main(argv) == 0, argv
    if "numpy.ma" in sys.modules:
        print(argv[0])
        break
else:
    print("none")
"""


def test_no_stage_imports_numpy_ma(tmp_path):
    src = str(Path(recinfluence.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", LAZY_IMPORT_RUN], cwd=tmp_path,
                         env=env, check=True, capture_output=True, text=True,
                         timeout=300)
    assert run.stdout.splitlines()[-1] == "none"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"]["influence_median"] is not None
    assert {"features", "embedding", "boundaries"} <= set(report["stages"])
