"""Command dispatch, exit codes, report files and determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gvc.cli import COMMANDS, main
from gvc.presets import PRESET_MODEL_TEXT, preset_model

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

BROKEN_JACOBI = """\
[model]
dimension = 2
metric = +-

[algebra]
generator e1 parity 0
generator e2 parity 0
generator e3 parity 0
c e1 e2 e3 = 1
c e2 e3 e1 = 1
c e3 e1 e2 = 1
c e2 e1 e2 = 1

[form]
h e1 e1 = 1
h e2 e2 = 1
h e3 e3 = 1
"""


@pytest.fixture
def model_file(tmp_path):
    def write(name, text=None):
        path = tmp_path / ("%s.model" % name)
        path.write_text(text if text is not None else PRESET_MODEL_TEXT[name],
                        encoding="utf-8")
        return str(path)

    return write


class TestExitCodes:
    def test_all_pass_is_zero(self, model_file, capsys):
        assert main(["validate-algebra", "--model", model_file("abelian")]) == 0
        out = capsys.readouterr().out
        assert "result pass" in out

    def test_failed_check_is_one(self, model_file, capsys):
        path = model_file("broken", BROKEN_JACOBI)
        assert main(["validate-algebra", "--model", path]) == 1
        out = capsys.readouterr().out
        assert "status fail" in out
        assert "jacobi" in out

    def test_parse_error_is_two(self, model_file, capsys):
        path = model_file("bad", "[model]\ndimension = nope\n")
        assert main(["validate-algebra", "--model", path]) == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_constant_over_the_digit_limit_is_two(self, model_file, capsys):
        # 5,001 digits make a valid rational, but Python converts at most
        # sys.get_int_max_str_digits() digits (4,300 by default) to an int
        line = "c e1 e2 e3 = " + "7" * 5001
        text = PRESET_MODEL_TEXT["su2"].replace("c e1 e2 e3 = 1", line)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert main(["full", "--model", model_file("long", text), "--deterministic"]) == 2
        finally:
            sys.set_int_max_str_digits(old)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("line %d, column 1: a constant of 5001 digits exceeds Python's limit of 4300 "
                "digits for an integer string" % (text.splitlines().index(line) + 1)) \
            in captured.err
        assert "777" not in captured.err and len(captured.err) < 300

    def test_duplicate_key_is_two(self, model_file, capsys):
        text = PRESET_MODEL_TEXT["su2"].replace("dimension = 4", "dimension = 4\ndimension = 4")
        assert main(["full", "--model", model_file("dup", text), "--deterministic"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 3, column 1: duplicate key 'dimension' in [model]" in captured.err

    def test_model_without_a_generator_is_two(self, model_file, capsys):
        text = "[model]\ndimension = 2\nmetric = ++\n\n[algebra]\n"
        path = model_file("empty", text)
        assert main(["full", "--model", path, "--deterministic"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gvc: %s: line 1, column 1: at least one generator is " \
            "required\n" % path

    @pytest.mark.parametrize("line, entry, message", [
        ("c e1 e2 e3 = 1", "c e1 e2 e3 = 0", "structure constant for (0, 1, 2)"),
        ("h e1 e1 = 1", "h e1 e1 = 0", "form entry for (0, 0)")])
    def test_entry_set_back_to_zero_is_two(self, model_file, capsys, line, entry, message):
        text = PRESET_MODEL_TEXT["su2"].replace(line, line + "\n" + entry)
        path = model_file("zeroed", text)
        assert main(["full", "--model", path, "--deterministic"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gvc: %s: line %d, column 1: inconsistent duplicate %s\n" % (
            path, text.splitlines().index(entry) + 1, message)

    def test_missing_file_is_two(self, capsys):
        assert main(["full", "--model", "/nonexistent/x.model"]) == 2

    def test_non_utf8_model_is_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.model"
        path.write_bytes(PRESET_MODEL_TEXT["su2"].encode("utf-8") + b"# caf\xe9\n")
        assert main(["full", "--model", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gvc: %s: not UTF-8 text" % path)
        assert "Traceback" not in captured.err

    def test_unwritable_report_is_two(self, model_file, capsys, tmp_path):
        for report in (tmp_path / "missing" / "out.json", tmp_path):
            assert main(["validate-algebra", "--model", model_file("su2"),
                         "--deterministic", "--report", str(report)]) == 2
            captured = capsys.readouterr()
            assert "result pass" in captured.out  # the report printed first
            assert captured.err.startswith("gvc: cannot write report: ")
            assert str(report) in captured.err

    def test_usage_error_is_two(self, model_file):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate", "--model", model_file("abelian")])
        assert err.value.code == 2


class TestPipelines:
    def test_euler_lagrange_prints_components(self, model_file, capsys):
        assert main(["euler-lagrange", "--model", model_file("abelian"),
                     "--deterministic"]) == 0
        out = capsys.readouterr().out
        assert "note el a1_0 =" in out
        assert "euler-lagrange-two-path" in out

    def test_euler_lagrange_abelian_n4(self, model_file, capsys):
        text = PRESET_MODEL_TEXT["abelian"].replace(
            "dimension = 2", "dimension = 4").replace(
            "metric = ++", "metric = +---")
        assert main(["euler-lagrange", "--model", model_file("maxwell", text),
                     "--deterministic"]) == 0
        out = capsys.readouterr().out
        # four field equations, each the divergence of the strength
        assert len([l for l in out.splitlines() if l.startswith("note el")]) == 4
        assert "note el a1_0 = a1_0;11 +a1_0;22 +a1_0;33 -a1_1;01 -a1_2;02 -a1_3;03" in out

    def test_broken_algebra_fails_downstream_pipeline(self, model_file, capsys):
        path = model_file("broken", BROKEN_JACOBI)
        assert main(["noether", "--model", path]) == 1
        out = capsys.readouterr().out
        assert "jacobi" in out

    def test_full_runs_listed_checks(self, model_file, capsys):
        assert main(["full", "--model", model_file("abelian"),
                     "--deterministic"]) == 0
        out = capsys.readouterr().out
        for name in ("algebra-structure", "euler-lagrange-two-path",
                     "noether-identities", "koszul-tate", "gauge-symmetry",
                     "brst-nilpotency", "master-equation",
                     "utiyama-strength-dependence"):
            assert "check %s" % name in out

    def test_max_order_flag(self, model_file, capsys):
        # order 1 is too low for the field equations: fails, no crash
        assert main(["euler-lagrange", "--model", model_file("abelian"),
                     "--max-order", "1", "--deterministic"]) == 1
        out = capsys.readouterr().out
        assert "status fail" in out

    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_max_order_below_one_is_a_usage_error(self, model_file, capsys, order):
        with pytest.raises(SystemExit) as err:
            main(["euler-lagrange", "--model", model_file("abelian"),
                  "--max-order", order, "--deterministic"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-order must be positive" in captured.err

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_term_limit_below_one_is_a_usage_error(self, model_file, capsys,
                                                   monkeypatch, limit):
        monkeypatch.setenv("GVC_MAX_TERMS", limit)
        with pytest.raises(SystemExit) as err:
            main(["euler-lagrange", "--model", model_file("su2"), "--deterministic"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "GVC_MAX_TERMS must be positive" in captured.err

    def test_term_limit_env_aborts(self, model_file, capsys, monkeypatch):
        monkeypatch.setenv("GVC_MAX_TERMS", "10")
        assert main(["euler-lagrange", "--model", model_file("su2"),
                     "--deterministic"]) == 2
        err = capsys.readouterr().err
        assert "limit" in err

    def test_report_file_mirrors_stdout(self, model_file, capsys, tmp_path):
        report = tmp_path / "out.json"
        assert main(["validate-algebra", "--model", model_file("su2"),
                     "--deterministic", "--report", str(report)]) == 0
        out = capsys.readouterr().out
        text_lines = out.strip().splitlines()
        json_lines = report.read_text(encoding="utf-8").strip().splitlines()
        assert len(text_lines) == len(json_lines)
        parsed = [json.loads(line) for line in json_lines]
        assert parsed[0] == {"model": "even dim 4 metric +---"}
        assert parsed[-1] == {"result": "pass"}


# `full` on su2 with max_jet_order = 2: the three checks that square
# third jets fail on the jet-order bound, with these witnesses.
SU2_JET_ORDER_2 = """\
model even dim 4 metric +---
check algebra-structure | status pass | nonzero 0 | first -
check invariant-form | status pass | nonzero 0 | first -
check euler-lagrange-two-path | status pass | nonzero 0 | first -
check parameter-symmetry | status pass | nonzero 0 | first -
check noether-identities | status fail | nonzero 0 | first jet order 3 exceeds configured maximum 2 for a1_1
check current-conservation | status pass | nonzero 0 | first -
check superpotential | status pass | nonzero 0 | first -
check koszul-tate | status fail | nonzero 0 | first jet order 3 exceeds configured maximum 2 for a1_1
check gauge-symmetry | status pass | nonzero 0 | first -
check brst-nilpotency | status pass | nonzero 0 | first -
check master-equation | status fail | nonzero 0 | first jet order 3 exceeds configured maximum 2 for c1
check utiyama-strength-dependence | status pass | nonzero 0 | first -
check utiyama-field-independence | status pass | nonzero 0 | first -
check utiyama-contraction | status pass | nonzero 0 | first -
result fail
"""


class TestResourceBounds:
    """The jet-order and term bounds on the orbit-reduced routes of the
    master equation, Noether rows, Koszul-Tate and the symmetry checks."""

    def test_jet_order_bound_fails_the_reduced_checks(self, model_file, capsys):
        text = PRESET_MODEL_TEXT["su2"].replace("max_jet_order = 3", "max_jet_order = 2")
        assert text != PRESET_MODEL_TEXT["su2"]
        assert main(["full", "--model", model_file("su2_order2", text), "--deterministic"]) == 1
        assert capsys.readouterr().out == SU2_JET_ORDER_2

    def test_term_limit_aborts_full(self, model_file, capsys, monkeypatch):
        monkeypatch.setenv("GVC_MAX_TERMS", "50")
        assert main(["full", "--model", model_file("su2"), "--deterministic"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "limit 50" in captured.err

    def test_term_limit_aborts_the_reduced_current_route(self, model_file, capsys,
                                                         monkeypatch):
        # one term below su2's Lepage form, which the current of the one
        # representative direction contracts, and above every earlier table
        lepage = preset_model("su2").lepage_form()
        limit = sum(len(f.terms) for f in lepage.terms.values()) - 1
        monkeypatch.setenv("GVC_MAX_TERMS", str(limit))
        assert main(["noether", "--model", model_file("su2"), "--deterministic"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "limit %d" % limit in captured.err

    @pytest.mark.parametrize("name", ["su2", "osp12"])
    def test_term_limit_below_L_aborts_only_what_reads_L(self, name, model_file, capsys,
                                                        monkeypatch):
        # one term below L in jets: the checks that read phi(L), u L, P_s
        # and the kept E(L) and rows by identity alone never form L, and
        # pass; the field equations do
        limit = len(preset_model(name).ym_lagrangian().density.terms) - 1
        monkeypatch.setenv("GVC_MAX_TERMS", str(limit))
        path = model_file(name)
        for command in ("utiyama", "brst", "koszul-tate", "master-equation"):
            assert main([command, "--model", path, "--deterministic"]) == 0, command
            assert capsys.readouterr().out.endswith("result pass\n")
        assert main(["euler-lagrange", "--model", path, "--deterministic"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "limit %d" % limit in captured.err


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, model_file, capsys):
        path = model_file("abelian")
        main(["full", "--model", path, "--deterministic"])
        first = capsys.readouterr().out
        main(["full", "--model", path, "--deterministic"])
        second = capsys.readouterr().out
        assert first == second

    def test_subprocess_entry_point(self, model_file):
        path = model_file("abelian")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "gvc.cli", "validate-algebra",
             "--model", path, "--deterministic"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "result pass" in proc.stdout


# Replacements for one space-separated token of a mutant's line.
MUTANT_TOKENS = ("0", "1", "-1", "2", "3", "1/2", "1/0", "-0", "x", "", "=", "+", "-", "+-",
                 "++", "parity", "e1", "h", "c", "generator", "[form]", "[checks]", "7" * 60)


def _mutant(text, rng):
    """`text` after one or two random line edits: a line deleted, doubled
    or swapped with another, its last token (most often a value) or
    another replaced, or one character inserted into it."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 2)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        op = rng.randrange(6)
        if op == 5:
            lines[i] = lines[i].rsplit(" ", 1)[0] + " " + rng.choice(MUTANT_TOKENS[:8])
        elif op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            tokens = lines[i].split(" ")
            tokens[rng.randrange(len(tokens))] = rng.choice(MUTANT_TOKENS)
            lines[i] = " ".join(tokens)
        else:
            k = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:k] + rng.choice("=[]#/-+ \t\x00\u00e9") + lines[i][k:]
    return "\n".join(lines) + "\n"


class TestHostileInput:
    @pytest.mark.parametrize("name", ["abelian", "su2", "osp12"])
    def test_mutated_golden_models_end_cleanly(self, name, model_file, capsys, monkeypatch):
        """Seeded mutants of a golden model, each run through one random
        command under a low term limit, all end in exit 0, 1 or 2 with no
        traceback; an exception escaping `main` fails the test."""
        monkeypatch.setenv("GVC_MAX_TERMS", "200")
        text = (Path(__file__).parent / "golden" / ("%s.model" % name)).read_text(encoding="utf-8")
        rng = random.Random("hostile-%s" % name)
        codes = []
        for k in range(150):
            path = model_file("mutant%d" % k, _mutant(text, rng))
            codes.append(main([rng.choice(COMMANDS), "--model", path, "--deterministic"]))
            captured = capsys.readouterr()
            assert "Traceback" not in captured.out + captured.err
        assert set(codes) <= {0, 1, 2} and len(set(codes)) > 1
