"""Rules over the program's own source files."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "streamreid")


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check written as one vanishes
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert os.path.isfile(os.path.join(SRC, "trainer.py"))
    assert found == [], f"assert statements in streamreid: {found}"
