"""The import surface is one file, public, and documented."""

import ast
import glob
import os
import re

from perfbench import surface

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(glob.glob(os.path.join(HERE, "*.py")))


def test_only_surface_imports_repro():
    offenders = []
    for path in SOURCES:
        if os.path.basename(path) == "surface.py":
            continue
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                if re.match(r"\s*(from|import)\s+repro\b", line):
                    offenders.append("%s:%d" % (os.path.basename(path), number))
    assert offenders == []


def test_surface_matches_the_readme():
    with open(os.path.join(HERE, "README.md")) as fh:
        text = fh.read()
    block = text.split("<!-- import-surface -->")[1].split("<!-- /import-surface -->")[0]
    documented = {}
    for line in block.strip().strip("`").strip().splitlines():
        module, names = line.split(":")
        documented[module.strip()] = set(names.split())
    imported = {}
    with open(os.path.join(HERE, "surface.py")) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "repro":
            imported.setdefault(node.module, set()).update(alias.name for alias in node.names)
    assert imported == documented
    exported = set(surface.__all__) - {"REPRO_DIR"}
    assert exported == set().union(*documented.values())


def test_no_private_attribute_but_the_scheduler_counter():
    offenders = []
    for path in SOURCES:
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                for owner, attr in re.findall(r"(\w+)\)?\.(_[A-Za-z]\w*)", line):
                    if owner in ("self", "cls") or attr.startswith("__") or attr == "_counter":
                        continue
                    offenders.append("%s:%d %s.%s" % (os.path.basename(path), number, owner, attr))
    assert offenders == []
