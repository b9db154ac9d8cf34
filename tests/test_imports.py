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
