"""Digest of the gvc CLI's output over a fixed sweep of models, commands,
jet-order bounds and term limits, to compare two checkouts byte for byte.

Run it from any checkout as `python tests/cli_sweep.py`: it imports that
checkout's `src/gvc` and calls `gvc.cli.main` in process, once per case,
with `--deterministic`.  It prints one line, the number of cases, how
many exited 0, and a SHA-256 over each case's name, exit code, stdout and
stderr.  Two checkouts whose lines match gave byte-identical output and
exit codes on every case.

`python tests/cli_sweep.py --direct` runs each case without GVC_MAX_TERMS
twice in process, by the shortcut routes and with every shortcut off
(`util.direct_routes`), and exits 1 naming the first case whose exit code
or output differs.  The cases:

- abelian, su2 and osp12 (tests/golden) and each in dimension 1 (metric
  +), x every command x {default, --max-order 2, --max-order 1};
- sl3 and sl21 (bench) and sl(3|1) (`util.supermatrix_model_text`) x
  FIVE_COMMANDS x the same three bounds;
- su2, osp12, sl21 and sl3 x FIVE_COMMANDS x GVC_MAX_TERMS in TERM_LIMITS.

The file name keeps pytest from collecting it; it needs the standard
library alone.
"""

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from gvc.cli import COMMANDS, main  # noqa: E402
from util import direct_routes, supermatrix_model_text  # noqa: E402

FIVE_COMMANDS = ("noether", "koszul-tate", "brst", "master-equation", "full")
ORDERS = ((), ("--max-order", "2"), ("--max-order", "1"))
TERM_LIMITS = (100, 200, 300, 500, 700, 1000, 1500, 2000, 2500, 3000)


def _models():
    """Model name to model text."""
    texts = {}
    for name in ("abelian", "su2", "osp12"):
        text = (ROOT / "tests" / "golden" / ("%s.model" % name)).read_text(encoding="utf-8")
        texts[name] = text
        texts[name + "-dim1"] = re.sub(r"dimension = \d+\nmetric = \S+",
                                       "dimension = 1\nmetric = +", text)
    for name in ("sl3", "sl21"):
        texts[name] = (ROOT / "bench" / ("%s.model" % name)).read_text(encoding="utf-8")
    texts["sl31"] = supermatrix_model_text((0, 0, 0, 1))
    return texts


def _cases():
    """(case name, model name, argv tail, GVC_MAX_TERMS or None)."""
    small = ("abelian", "su2", "osp12")
    for model in small + tuple(name + "-dim1" for name in small):
        for command in COMMANDS:
            for order in ORDERS:
                yield model, command, order, None
    for model in ("sl3", "sl21", "sl31"):
        for command in FIVE_COMMANDS:
            for order in ORDERS:
                yield model, command, order, None
    for model in ("su2", "osp12", "sl21", "sl3"):
        for command in FIVE_COMMANDS:
            for limit in TERM_LIMITS:
                yield model, command, (), limit


def _run(argv, limit):
    """(exit code, stdout, stderr) of `gvc argv` under GVC_MAX_TERMS=limit."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("GVC_MAX_TERMS", None)
    if limit is not None:
        os.environ["GVC_MAX_TERMS"] = str(limit)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.environ.pop("GVC_MAX_TERMS", None)
        if saved is not None:
            os.environ["GVC_MAX_TERMS"] = saved
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _model_files():
    """(temporary directory, model name to the path of its text there)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in _models().items():
            paths[name] = os.path.join(tmp, name + ".model")
            with open(paths[name], "w", encoding="utf-8") as handle:
                handle.write(text)
        yield tmp, paths


def _case(tmp, paths, model, command, tail, limit):
    """(case name, exit code, stdout, stderr) of one case."""
    argv = [command, "--model", paths[model], "--deterministic", *tail]
    code, out, err = _run(argv, limit)
    # the temporary directory differs between runs
    out, err = out.replace(tmp, "<tmp>"), err.replace(tmp, "<tmp>")
    case = "%s %s %s GVC_MAX_TERMS=%s" % (model, command, " ".join(tail), limit)
    return case, str(code), out, err


def sweep():
    """(cases run, cases that exited 0, hex digest)."""
    digest, count, passed = hashlib.sha256(), 0, 0
    with _model_files() as (tmp, paths):
        for case in _cases():
            parts = _case(tmp, paths, *case)
            for part in parts:
                digest.update(part.encode("utf-8"))
                digest.update(b"\0")
            count += 1
            passed += parts[1] == "0"
    return count, passed, digest.hexdigest()


def first_difference():
    """(cases compared, the name of the first case without GVC_MAX_TERMS
    whose exit code or output changes with every shortcut off
    (`util.direct_routes`), or None).  GVC_MAX_TERMS is left out: the
    direct routes build larger intermediates, so they abort earlier."""
    count = 0
    with _model_files() as (tmp, paths):
        for case in _cases():
            if case[3] is None:
                shortcut = _case(tmp, paths, *case)
                with direct_routes():
                    direct = _case(tmp, paths, *case)
                count += 1
                if shortcut != direct:
                    return count, shortcut[0]
    return count, None


if __name__ == "__main__":
    if sys.argv[1:] == ["--direct"]:
        count, differs = first_difference()
        if differs is not None:
            sys.exit("cli sweep --direct: case %d differs: %s" % (count, differs))
        print("cli sweep --direct: %d cases alike on both routes" % count)
    elif sys.argv[1:]:
        sys.exit("usage: python tests/cli_sweep.py [--direct]")
    else:
        print("cli sweep: %d cases, %d exit 0, sha256 %s" % sweep())
