"""CLI surface: every subcommand, exit codes, determinism."""

import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from metabelian.cli import _normal_form, main
from metabelian.elements import ModuleElement
from metabelian.groebner import normal_form
from metabelian.presets import PresetSpec, build
from metabelian.wordproblem import module_context

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.fixture()
def bs_file(tmp_path):
    from _helpers import BS2
    path = tmp_path / "bs2.json"
    path.write_text(BS2.render())
    return str(path)


def run(argv):
    captured = io.StringIO()
    old = sys.stdout
    sys.stdout = captured
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, captured.getvalue()


class TestCommands:
    def test_solve(self, bs_file):
        code, out = run(["solve", "-p", bs_file, "-w", "t*a*t^-1*a^-2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["identity"] is True

    def test_norm_growth_rows(self):
        code, out = run(["norm-growth", "-f", "1+t", "-n", "5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[:2] == ["# base=2.0", "n,norm"]
        assert [l.split(",")[1] for l in lines[2:]] == ["2", "4", "8", "16", "32"]

    def test_norm_growth_past_the_digit_limit(self, capsys):
        """Norms longer than Python converts print in full under the
        fitted base."""
        from metabelian.bounds import _decimal
        from metabelian.cli import _parse_growth_poly
        from metabelian.presets import norm_growth
        poly = "1 + 99999999999999999999*t + t^2"
        code, out = run(["norm-growth", "-f", poly, "-n", "250"])
        assert code == 0 and capsys.readouterr().err == ""
        norms, alpha = norm_growth(_parse_growth_poly(poly), 250)
        lines = out.splitlines()
        assert lines[:2] == [f"# base={alpha}", "n,norm"]
        assert len(lines[-1]) > 5000
        assert lines[2:] == [f"{n},{_decimal(v)}" for n, v in
                             enumerate(norms, 1)]

    def test_nf_of_shifted_elements(self, bs_file):
        """In BS(1,2) ``t^-1*a`` is ``2*a``: equal classes print one normal
        form, and ``a`` another."""
        def nf(element):
            code, out = run(["nf", "-p", bs_file, "-e", element])
            assert code == 0
            return json.loads(out)["normal_form"]
        assert nf("t^-1*a") == nf("2*a") == "2*a"
        assert nf("t^-2*a") == nf("4*a") == "4*a"
        assert nf("a") == "a"

    def test_constants(self, bs_file):
        code, out = run(["constants", "-p", bs_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["C"] == "1" and doc["D"] == "1" and doc["r0"] == "0.5"
        assert doc["R"] == "undefined" and "diagnostic" in doc

    def test_groebner(self, bs_file):
        code, out = run(["groebner", "-p", bs_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["generators"]

    def test_nf_and_member(self, bs_file):
        code, out = run(["nf", "-p", bs_file, "-e", "(t^-1 - 2)*a"])
        assert code == 0 and json.loads(out)["is_zero"] is True
        code, out = run(["member", "-p", bs_file, "-e", "(t^-2 - 4)*a"])
        assert code == 0
        doc = json.loads(out)
        assert doc["member"] is True and doc["certificate"]["size"] == "3"

    def test_area_and_rel_area(self, bs_file):
        """The identity verdict and the witnessed relative area, once
        printed by ``area`` and ``rel-area``, are read off solve's
        certificate for the same word."""
        code, out = run(["solve", "-p", bs_file, "-w", "t*a*t^-1*a^-2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["identity"] is True
        relative = (int(doc["ledger"]["relative_total"])
                    + int(doc["membership"]["size"]))
        assert relative <= 4

    def test_oracle(self, bs_file):
        code, out = run(["oracle", "-p", bs_file, "-e", "(t^-2 - 4)*a",
                         "--budget", "3,4,6"])
        assert code == 0
        doc = json.loads(out)
        assert doc["minimal_size"] == 3 and doc["conclusive"] is True

    def test_module_dehn(self, bs_file):
        code, out = run(["module-dehn", "-p", bs_file, "-n", "5"])
        assert code == 0
        assert out.splitlines()[:2] == ["# sampler=exhaustive", "norm,max_cert_size"]

    def test_module_dehn_random_sampler_names_its_seed(self, bs_file):
        code, out = run(["module-dehn", "-p", bs_file, "-n", "5",
                         "--sampler", "random", "--samples", "3", "--seed", "7"])
        assert code == 0
        assert out.splitlines()[:2] == ["# seed=7", "norm,max_cert_size"]
        code, out = run(["module-dehn", "-p", bs_file, "-n", "5",
                         "--sampler", "random"])
        assert code == 0 and out.splitlines()[0] == "# seed=0"

    @pytest.mark.parametrize("option", ["--seed", "--samples"])
    @pytest.mark.parametrize("sampler", [[], ["--sampler", "exhaustive"]],
                             ids=["default", "named"])
    def test_module_dehn_exhaustive_refuses_sampling_options(
            self, bs_file, option, sampler, capsys):
        """The exhaustive sampler reads neither option, so a given one is
        refused rather than printed as if it had been used."""
        code, out = run(["module-dehn", "-p", bs_file, "-n", "5", option, "3"]
                        + sampler)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            f"error: {option} is a random sampler option; "
            "the exhaustive sampler reads none\n")

    def test_profile_with_preset(self):
        code, out = run(["profile", "--preset", "bs", "--n", "2", "-n", "4",
                         "--samples", "2", "--seed", "5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "n,max_witnessed,max_cert_size,bound"
        assert len(lines) == 5

    def test_preset_emission_parses(self):
        code, out = run(["preset", "wf", "--r", "1", "--k", "1", "--f", "1,1"])
        assert code == 0
        from metabelian.presentation import parse_presentation
        parse_presentation(out)


class TestLongBounds:
    def test_profile_bound_column(self, bs_file):
        code, out = run(["profile", "-p", bs_file, "-n", "45", "--samples", "0"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "n,max_witnessed,max_cert_size,bound"
        first, last = lines[2].split(","), lines[-1].split(",")
        assert first[0] == "2" and first[3].isdigit()
        assert last[0] == "45" and last[3].startswith("576^2025 + ")

    def test_solve_long_witness(self):
        code, out = run(["solve", "--preset", "bs", "--n", "2",
                         "-w", "t^8*a*t^-8*a^-256"])
        assert code == 0
        doc = json.loads(out)
        assert doc["identity"] is True and doc["membership"]["size"] == "255"
        assembly = doc["assembly_bound"]
        assert "value" not in assembly
        assert assembly["expression"].startswith("576^74529 + ")
        assert assembly["log2"] > 683425
        assert doc["relative_bound"]["value"].isdigit()

    def test_solve_long_division(self):
        """t^2000 a t^-2000 a^-1 is not the identity; its division takes one
        step per unit of the exponent."""
        code, out = run(["solve", "--preset", "bs", "--n", "2",
                         "-w", "t^2000*a*t^-2000*a^-1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["identity"] is False
        assert doc["membership"]["steps"] == 2000


class TestDeterminism:
    def test_profile_byte_identical(self):
        a = run(["profile", "--preset", "bs", "--n", "2", "-n", "5",
                 "--samples", "3", "--seed", "7"])
        b = run(["profile", "--preset", "bs", "--n", "2", "-n", "5",
                 "--samples", "3", "--seed", "7"])
        assert a == b

    def test_solve_byte_identical(self, bs_file):
        a = run(["solve", "-p", bs_file, "-w", "t^3*a*t^-3*a^-8"])
        b = run(["solve", "-p", bs_file, "-w", "t^3*a*t^-3*a^-8"])
        assert a == b


class TestExitCodes:
    def test_missing_file(self):
        code, _ = run(["solve", "-p", "/nonexistent.json", "-w", "a"])
        assert code == 2

    def test_unreadable_file(self, tmp_path, capsys):
        code, out = run(["solve", "-p", str(tmp_path), "-w", "a"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["solve", "-p", "deep.json", "-w", "a"],
        ["solve", "--preset", "bs", "-w", "(" * 5000 + "a" + ")" * 5000],
        ["nf", "--preset", "bs", "-e", "(" * 5000 + "a" + ")" * 5000],
    ], ids=["file", "word", "element"])
    def test_deep_nesting(self, argv, tmp_path, monkeypatch, capsys):
        (tmp_path / "deep.json").write_text("[" * 100000)
        monkeypatch.chdir(tmp_path)
        code, out = run(argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: nesting is too deep\n"

    def test_bad_word(self, bs_file):
        code, _ = run(["solve", "-p", bs_file, "-w", "q*q"])
        assert code == 2

    def test_bad_element(self, bs_file):
        code, _ = run(["nf", "-p", bs_file, "-e", "(("])
        assert code == 2

    def test_bad_budget(self, bs_file):
        code, _ = run(["oracle", "-p", bs_file, "-e", "a", "--budget", "1,2"])
        assert code == 2

    @pytest.mark.parametrize("argv, option, part", [
        (["oracle", "--preset", "bs", "-e", "a", "--budget", "1,2,x"],
         "budget", "x"),
        (["solve", "--preset", "wf", "--f", "1,x", "-w", "a1"], "f", "x"),
        (["solve", "--preset", "wf", "--orders", "2,x", "-w", "a1"],
         "orders", "x"),
        (["preset", "wf", "--f", ""], "f", ""),
        (["preset", "wf", "--orders", ""], "orders", ""),
    ], ids=["budget", "f", "orders", "f-empty", "orders-empty"])
    def test_comma_list_part_is_no_integer(self, argv, option, part, capsys):
        code, out = run(argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            f"error: --{option} takes comma-separated integers, got {part!r}\n")

    @pytest.mark.parametrize("budget", ["-1,2,3", "1,2,-3"])
    def test_negative_budget(self, budget):
        """A negative part searches nothing: an input error, not an
        inconclusive answer."""
        code, out = run(["oracle", "--preset", "bs", "-e", "a",
                         f"--budget={budget}"])
        assert code == 2 and out == ""

    @pytest.mark.parametrize("argv", [
        ["solve", "--preset", "bs", "--n", "0", "-w", "a"],
        ["preset", "bs", "--n", "0"],
        ["solve", "--preset", "lamplighter", "--m", "0", "-w", "a"],
        ["preset", "lamplighter", "--m", "0"],
        ["preset", "wf", "--r", "0"],
        ["solve", "--preset", "wf", "--k", "0", "-w", "z"],
        ["preset", "wf", "--orders", "1"],
        ["solve", "--preset", "wf", "--orders", "0", "-w", "a1"],
        ["solve", "--preset", "wf", "--orders", "3,-2", "-w", "a1"],
    ])
    def test_degenerate_preset_parameter(self, argv):
        code, out = run(argv)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("nmax", ["1", "0"])
    def test_norm_growth_needs_two_norms(self, nmax, capsys):
        code, out = run(["norm-growth", "-f", "1+t", "-n", nmax])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == \
            f"error: norm growth fits a base to N >= 2 norms, got N = {nmax}\n"

    @pytest.mark.parametrize("argv, message", [
        (["module-dehn", "-n", "-3"], "module-dehn needs n >= 0, got n = -3"),
        (["module-dehn", "-n", "3", "--sampler", "random", "--samples", "-5"],
         "module-dehn needs samples >= 0, got samples = -5"),
        (["profile", "-n", "3", "--samples", "-2"],
         "profile needs samples >= 0, got samples = -2"),
    ], ids=["module-dehn-n", "module-dehn-samples", "profile-samples"])
    def test_negative_experiment_option(self, argv, message, capsys):
        """A negative size is refused, not answered with an empty table or
        with the witnesses alone."""
        code, out = run(argv + ["--preset", "bs"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("lam", [[], 0, False, ""])
    def test_falsy_lambda_exits_2(self, lam, tmp_path):
        from _helpers import BS2
        doc = BS2.to_json()
        doc["lambda"] = lam
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run(["solve", "-p", str(path), "-w", "a"])
        assert code == 2 and out == ""

    def test_malformed_file_exits_2_without_traceback(self, tmp_path):
        from _helpers import BS2
        doc = BS2.to_json()
        doc["lambda"] = ["2*t"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "metabelian.cli", "solve", "-p", str(path),
             "-w", "a"], capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("word, code", [
        ("1^99999999999999999999", 0), ("(a*a^-1)^99999999999999999999", 0),
        ("(a*t)^99999999999999999999", 2)])
    def test_huge_powers_exit_without_traceback(self, word, code):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "metabelian.cli", "solve", "--preset", "bs",
             "--n", "2", "-w", word], capture_output=True, text=True, env=env,
            check=False)
        assert proc.returncode == code and "Traceback" not in proc.stderr
        if code == 0:
            assert json.loads(proc.stdout)["identity"] is True


class TestRemovedOptions:
    @pytest.mark.parametrize("argv", [
        ["solve", "--preset", "bs", "-w", "a", "--format", "json"],
        ["groebner", "--preset", "bs", "--seed", "1"],
        ["solve", "--preset", "bs", "-w", "t*a*t^-1*a^-2", "--K", "5"],
        ["area", "--preset", "bs", "-w", "t*a*t^-1*a^-2"],
        ["rel-area", "--preset", "bs", "-w", "t*a*t^-1*a^-2"],
    ])
    def test_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestPresetOptions:
    def test_defaults_apply_only_when_absent(self):
        code, out = run(["solve", "--preset", "bs", "-w", "t*a*t^-1*a^-2"])
        assert code == 0 and json.loads(out)["identity"] is True
        code, out = run(["solve", "--preset", "bs", "--n", "5",
                         "-w", "t*a*t^-1*a^-2"])
        assert code == 0 and json.loads(out)["identity"] is False

    @pytest.mark.parametrize("argv, message", [
        (["solve", "-p", "{file}", "--n", "5", "-w", "t*a*t^-1*a^-2"],
         "--n is a preset option and needs --preset"),
        (["module-dehn", "-p", "{file}", "--orders", "2"],
         "--orders is a preset option and needs --preset"),
        (["solve", "--preset", "bs", "--m", "7", "-w", "a"],
         "preset 'bs' does not read --m"),
        (["solve", "--preset", "zwrz", "--k", "3", "--f", "1,2,1", "-w", "a"],
         "preset 'zwrz' does not read --k"),
        (["profile", "--preset", "lamplighter", "--n", "3", "-n", "3"],
         "preset 'lamplighter' does not read --n"),
        (["preset", "free_abelian", "--r", "2"],
         "preset 'free_abelian' does not read --r"),
        (["solve", "-p", "{file}", "--preset", "bs", "-w", "a"],
         "give a presentation file (-p) or --preset, not both"),
    ], ids=["option-without-preset", "orders-without-preset", "bs-m",
            "zwrz-k-f", "lamplighter-n", "preset-command", "file-and-preset"])
    def test_unread_options_are_rejected(self, argv, message, bs_file, capsys):
        argv = [bs_file if a == "{file}" else a for a in argv]
        code, out = run(argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"


def test_budget_exceeded_exits_3(monkeypatch, capsys):
    import metabelian.cli as cli
    from metabelian.errors import BudgetExceeded

    def exhausted(w, p):
        raise BudgetExceeded("division exceeded its step budget")

    monkeypatch.setattr(cli, "is_identity", exhausted)
    code, out = run(["solve", "--preset", "bs", "-w", "a"])
    assert code == 3 and out == ""
    assert capsys.readouterr().err == \
        "budget exceeded: division exceeded its step budget\n"


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_certificate_of_a_huge_word_renders():
    """A BS(1,2) identity with 3,000-digit exponents: the bounds' bases and
    exponents are past Python's int-to-str digit limit, and the assembly
    bound's log2 past the float range.  The output is strict JSON: that
    log2 is an integer, written as a decimal string since it has about
    6,000 digits, not ``Infinity``."""
    code, out = run(["solve", "--preset", "bs", "--n", "2",
                     "-w", f"t*a^{'9' * 3000}*t^-1*a^-{'9' * 3000}*a^-{'9' * 3000}"])
    assert code == 0
    doc = json.loads(out, parse_constant=_refuse_constant)
    assert doc["identity"] is True
    # the word length n = 3*10^3000 - 1 leads the relative bound as n^2
    n = "2" + "9" * 3000
    assert doc["relative_bound"]["expression"].startswith(f"{n}^2 + ")
    # the assembly bound leads with 576^(n^2): log2 is n^2 * log2(576)
    assert doc["assembly_bound"]["expression"].startswith("576^")
    log2 = doc["assembly_bound"]["log2"]
    n = 3 * 10 ** 3000 - 1
    assert len(log2) == len(str(n)) * 2 and log2.isdigit()
    leading = Fraction(int(log2[:40])) * 10 ** (len(log2) - 40)
    assert abs(leading / (n * n * Fraction(math.log2(576))) - 1) < Fraction(1, 10 ** 12)


_NF_PRESETS = [PresetSpec("bs", n=2), PresetSpec("bs", n=3),
               PresetSpec("lamplighter", m=3), PresetSpec("zwrz"),
               PresetSpec("baumslag_gamma"), PresetSpec("free_abelian"),
               PresetSpec("wf", r=1, k=2),
               PresetSpec("wf", r=2, k=1, torsion_orders=(3,))]


@pytest.mark.parametrize("spec", _NF_PRESETS,
                         ids=[f"{s.name}-{i}" for i, s in enumerate(_NF_PRESETS)])
def test_nf_is_a_class_invariant(spec):
    """``nf`` gives one normal form per class: adding a multiple of a
    translated relator vector changes nothing, a normal form is its own,
    and ``is_zero`` agrees with the shift embedding's."""
    p = build(spec)
    ctx = module_context(p)
    amb = p.module_ambient()
    rng = random.Random(spec.name)
    vectors = [v for v in ctx.relator_vectors if not v.is_zero()]
    for _ in range(12):
        g = ModuleElement.from_dict(amb, {
            (tuple(rng.randint(-2, 2) for _ in range(amb.nvars)),
             rng.randint(1, amb.rank)): rng.choice((-2, -1, 1, 3))
            for _ in range(rng.randint(0, 3))})
        nf = _normal_form(g, ctx)
        assert _normal_form(nf, ctx) == nf
        assert nf.is_zero() == normal_form(ctx.embed(g), ctx.basis).is_zero()
        for v in rng.sample(vectors, min(3, len(vectors))):
            shift = tuple(rng.randint(-2, 2) for _ in range(amb.nvars))
            moved = g + v.scale_translate(rng.choice((-2, -1, 1, 2)), shift)
            assert _normal_form(moved, ctx) == nf
