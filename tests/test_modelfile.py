"""Model file parsing, rendering and semantic validation."""

import random
import re
from pathlib import Path

import pytest

from gvc.grassmann import GvcError
from gvc.modelfile import ParseError, parse_model, render_model, \
    spec_algebra, spec_model
from gvc.presets import PRESET_MODEL_TEXT, osp12_algebra, preset_model

from util import abelian_algebra, su2_algebra

GOLDEN = Path(__file__).parent / "golden"
PRESET_ALGEBRA_FACTORIES = {"abelian": abelian_algebra, "su2": su2_algebra,
                            "osp12": osp12_algebra}

MINIMAL = """\
[model]
dimension = 2
metric = ++

[algebra]
generator e1 parity 0
"""


class TestParse:
    def test_minimal_abelian(self):
        spec = parse_model(MINIMAL)
        assert spec.dimension == 2
        assert spec.metric == "++"
        assert spec.max_jet_order == 3
        assert spec.generators == [("e1", 0)]
        assert spec.checks == []

    @pytest.mark.parametrize("name", sorted(PRESET_ALGEBRA_FACTORIES))
    def test_file_matches_preset(self, name):
        spec = parse_model(PRESET_MODEL_TEXT[name])
        alg = spec_algebra(spec)
        preset = PRESET_ALGEBRA_FACTORIES[name]()
        assert alg.parities == preset.parities
        assert alg.labels == preset.labels
        assert alg.stored_constants() == preset.stored_constants()
        assert alg.graded_form() == preset.graded_form()

    def test_no_generator_rejected(self):
        text = MINIMAL.replace("generator e1 parity 0\n", "")
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert "at least one generator is required" in str(err.value)
        assert err.value.line == 1

    def test_six_line_mirror_entries_collapse(self):
        spec = parse_model(PRESET_MODEL_TEXT["su2"])
        alg = spec_algebra(spec)
        # the six file entries collapse onto three canonical ones
        assert len(alg.stored_constants()) == 3

    def test_even_diagonal_constant_rejected(self):
        text = MINIMAL.replace("generator e1 parity 0",
                               "generator e1 parity 0\nc e1 e1 e1 = 1")
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert "must vanish" in str(err.value)
        assert err.value.line == 7

    def test_inconsistent_mirror_rejected(self):
        text = PRESET_MODEL_TEXT["su2"].replace("c e1 e3 e2 = -1", "c e1 e3 e2 = 1")
        with pytest.raises(ParseError):
            parse_model(text)

    def test_undeclared_label(self):
        text = MINIMAL + "c e1 e1 e2 = 1\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert "undeclared" in str(err.value)

    def test_non_rational_rejected(self):
        text = PRESET_MODEL_TEXT["su2"].replace("= 1", "= 0.5", 1)
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert "rational" in str(err.value)

    def test_long_non_rational_is_echoed_short(self):
        junk = "1/" + "x" * 5000
        text = PRESET_MODEL_TEXT["su2"].replace("c e1 e2 e3 = 1", "c e1 e2 e3 = " + junk)
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert err.value.line == text.splitlines().index("c e1 e2 e3 = " + junk) + 1
        assert str(err.value).endswith(
            "expected an exact rational, got %r... (5002 characters)" % junk[:40])

    def test_unknown_key_rejected(self):
        text = MINIMAL.replace("metric = ++", "metric = ++\ncolor = blue")
        with pytest.raises(ParseError):
            parse_model(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError):
            parse_model("[stuff]\n")

    def test_unknown_check_rejected(self):
        text = MINIMAL + "\n[checks]\nfrobnicate\n"
        with pytest.raises(ParseError):
            parse_model(text)

    def test_dimension_range(self):
        with pytest.raises(ParseError):
            parse_model(MINIMAL.replace("dimension = 2", "dimension = 5"))

    def test_metric_length_must_match(self):
        with pytest.raises(ParseError):
            parse_model(MINIMAL.replace("metric = ++", "metric = +"))

    @pytest.mark.parametrize("line", ["dimension = 2", "metric = ++", "max_jet_order = 2"])
    def test_duplicate_model_key_rejected(self, line):
        text = MINIMAL.replace("metric = ++", "metric = ++\nmax_jet_order = 3\n" + line)
        with pytest.raises(ParseError, match="duplicate key %r" % line.split()[0]) as err:
            parse_model(text)
        assert err.value.line == 5

    def test_second_dimension_does_not_overwrite_the_first(self):
        # without the rejection this parses as a consistent 2D model
        text = MINIMAL.replace("dimension = 2", "dimension = 4\ndimension = 2").replace(
            "metric = ++", "metric = +-")
        with pytest.raises(ParseError, match="duplicate key 'dimension'") as err:
            parse_model(text)
        assert err.value.line == 3

    def test_check_listed_twice_rejected(self):
        text = MINIMAL + "\n[checks]\nbrst\nnoether\nbrst\n"
        with pytest.raises(ParseError, match="check 'brst' listed twice") as err:
            parse_model(text)
        assert err.value.line == 11

    def test_line_numbers_reported(self):
        text = MINIMAL + "junk line\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert err.value.line == 7


class TestRender:
    def test_round_trip_is_identity_on_canonical_text(self):
        for name, text in PRESET_MODEL_TEXT.items():
            spec = parse_model(text)
            assert render_model(spec) == text

    def test_whitespace_normalization_only(self):
        messy = MINIMAL.replace("dimension = 2", "dimension   =    2")
        spec = parse_model(messy)
        canonical = render_model(spec)
        spec2 = parse_model(canonical)
        assert render_model(spec2) == canonical
        assert spec2.generators == spec.generators


class TestBuild:
    def test_spec_model_runs(self):
        spec = parse_model(PRESET_MODEL_TEXT["abelian"])
        model = spec_model(spec)
        assert model.ctx.max_jet_order == 3
        report = model.full_verification(deterministic=True)
        assert report.ok

    def test_max_order_override(self):
        spec = parse_model(PRESET_MODEL_TEXT["abelian"])
        model = spec_model(spec, max_jet_order=5)
        assert model.ctx.max_jet_order == 5


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESET_MODEL_TEXT))
    def test_text_is_the_golden_model_file(self, name):
        golden = (GOLDEN / ("%s.model" % name)).read_bytes()
        assert PRESET_MODEL_TEXT[name].encode("utf-8") == golden

    def test_every_golden_model_file_is_a_preset(self):
        assert sorted(p.stem for p in GOLDEN.glob("*.model")) == sorted(PRESET_MODEL_TEXT)

    @pytest.mark.parametrize("name", sorted(PRESET_MODEL_TEXT))
    def test_preset_model_renders_the_golden_report(self, name):
        report = preset_model(name).full_verification(deterministic=True)
        golden = (GOLDEN / ("%s.txt" % name)).read_text(encoding="utf-8")
        assert report.render() == golden


class TestFuzz:
    """Seeded mutants of the golden model files: each one parses or is
    rejected with a line number, and each one that parses builds or is
    rejected with a `GvcError`; nothing else escapes."""

    TOKENS = ("[model]", "[algebra]", "[form]", "[checks]", "=", "c", "h", "generator",
              "parity", "0", "1", "-1", "2", "4", "5", "1/0", "1/2", "-3/4", "x", "e1",
              "+-", "+---", "dimension", "metric", "max_jet_order", "noether", "9" * 40, "")
    CHARS = " \t=[]/+-_#.0123456789ehxcé\x00"

    def _mutate(self, rng, lines):
        lines = list(lines)
        op = rng.randrange(5)
        i = rng.randrange(len(lines))
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            k = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:k] + rng.choice(self.CHARS) + lines[i][k + rng.randrange(2):]
        else:
            words = lines[i].split() or [""]
            words[rng.randrange(len(words))] = rng.choice(self.TOKENS)
            lines[i] = " ".join(words)
        return lines

    def test_mutants_fail_cleanly(self):
        rng = random.Random(2014)
        sources = [p.read_text(encoding="utf-8").splitlines()
                   for p in sorted(GOLDEN.glob("*.model"))]
        assert len(sources) == 3
        outcomes = {"parse-error": 0, "build-error": 0, "built": 0}
        for _ in range(4000):
            lines = rng.choice(sources)
            for _ in range(rng.randint(1, 3)):
                lines = self._mutate(rng, lines) or [""]
            try:
                spec = parse_model("\n".join(lines) + "\n")
            except ParseError as exc:
                assert re.search(r"\bline \d+", str(exc)), str(exc)
                outcomes["parse-error"] += 1
                continue
            try:
                spec_model(spec)
            except GvcError:
                outcomes["build-error"] += 1
                continue
            outcomes["built"] += 1
        assert all(outcomes.values()), outcomes
