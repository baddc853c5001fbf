"""Every function the benchmark's layer tracer wraps still exists.

`bench/tracer.py` names its targets as (metric, module, attribute); a
renamed or dropped function would only show up as a failed benchmark
run, so this reads the table (without importing the tracer) and
resolves each entry in `gvc`.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).parent.parent / "bench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS table in %s" % TRACER)


TARGETS = _targets()


def test_table_is_not_empty():
    assert len(TARGETS) > 20


@pytest.mark.parametrize("name, module, attr", TARGETS,
                         ids=["%s:%s" % (t[0], t[2]) for t in TARGETS])
def test_target_resolves(name, module, attr):
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(mod, cls_name).__dict__[meth])
    else:
        assert callable(getattr(mod, attr))
