"""Exit-code discipline and output shapes of the command line."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shufflecraft
from shufflecraft import catalog, cli
from shufflecraft.cli import main, run
from shufflecraft.morphisms import fixed_point_prefix
from shufflecraft.shuffle import ShuffleWitness, shuffle_conducted
from shufflecraft.words import is_square_free


def out(argv):
    result = run(argv)
    return result.payload, result.exit_code


def test_shuffle_example():
    assert out(["shuffle", "0102", "1201", "00101110"]) == ("01102012", 0)


def test_squarefree_reports_square_with_exit_1():
    payload, code = out(["squarefree", "00"])
    assert code == 1
    assert "(0, 1)" in payload


def test_squarefree_clean_word():
    assert out(["squarefree", "0102"]) == ("square-free", 0)


def test_squarefree_rejects_non_digits():
    payload, code = out(["squarefree", "0a0"])
    assert code == 2
    assert payload.startswith("error:")


@pytest.mark.parametrize("word", ["²²", "٣٣", "0²"])
def test_squarefree_rejects_non_ascii_digits(word):
    assert out(["squarefree", word]) == (f"error: word must be a string of digits, got {word!r}", 2)


def test_unshuffle_rejects_non_ascii_digits():
    assert out(["unshuffle", "²²"]) == ("error: word must be a string of digits, got '²²'", 2)


def test_squarefree_empty_word():
    assert out(["squarefree", ""]) == ("square-free", 0)


def test_find_beta_default_limit():
    payload, code = out(["find-beta", "012"])
    assert code == 0
    assert payload == "001011 -> 010212"


def test_find_beta_all_includes_complement():
    payload, code = out(["find-beta", "012", "--all"])
    assert code == 0
    assert payload.splitlines() == ["001011 -> 010212", "110100 -> 010212"]


def test_find_beta_failure_is_exit_1():
    _, code = out(["find-beta", "010"])
    assert code == 1


@pytest.mark.parametrize("limit", ["-1", "0"])
def test_find_beta_rejects_a_limit_below_1(limit):
    # 012 has two self-shuffles; a limit below 1 must not report none
    payload, code = out(["find-beta", "012", "--limit", limit])
    assert code == 2
    assert payload.startswith("error:") and "--limit" in payload


def test_unshuffle():
    payload, code = out(["unshuffle", "010212"])
    assert code == 0
    assert payload == "u = 012\nbeta = 001011"


def test_enumerate_csv_golden():
    payload, code = out(["enumerate", "--max-length", "8", "--format", "csv"])
    assert code == 0
    assert payload.splitlines() == [
        "length,square_free_count,shuffle_word_count,shuffleable_u_count",
        "4,18,0,0",
        "6,42,6,6",
        "8,78,12,6",
    ]


def test_enumerate_rejects_tiny_lengths():
    _, code = out(["enumerate", "--max-length", "2"])
    assert code == 2


def test_certify_morphism_catalog_name():
    payload, code = out(["certify-morphism", "h18"])
    assert code == 0
    assert payload.startswith("certified square-free")


def test_certify_morphism_refutation_exit_1():
    payload, code = out(["certify-morphism", "tau"])
    assert code == 1
    assert "refuted" in payload


def test_certify_morphism_from_file(tmp_path):
    path = tmp_path / "ident.txt"
    path.write_text("0 -> 0\n1 -> 1\n2 -> 2\n")
    payload, code = out(["certify-morphism", str(path)])
    assert code == 0


def test_certify_morphism_unknown_name():
    payload, code = out(["certify-morphism", "nosuch"])
    assert code == 2
    assert "nosuch" in payload


def test_certify_morphism_unreadable_path_is_usage_error(tmp_path):
    payload, code = out(["certify-morphism", str(tmp_path)])
    assert code == 2
    assert payload.startswith(f"error: cannot read {tmp_path}")


def test_certify_substitution_unreadable_path_is_usage_error(tmp_path):
    payload, code = out(["certify-substitution", str(tmp_path)])
    assert code == 2
    assert payload.startswith(f"error: cannot read {tmp_path}")


@pytest.mark.parametrize("command", ["certify-morphism", "certify-substitution"])
def test_empty_map_file_is_usage_error(tmp_path, command):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert out([command, str(path)]) == (f"error: cannot parse {path}: no letter images", 2)


@pytest.mark.parametrize("command, text, message", [
    ("certify-morphism", "x -> 01", "line 1: bad source letter 'x'"),
    ("certify-morphism", "0 -> 01\n1 -> 12x", "line 2: bad image '12x'"),
    ("certify-substitution", "0 -> {01, 1z}", "line 1: bad image '1z'"),
])
def test_malformed_map_file_names_its_line(tmp_path, command, text, message):
    path = tmp_path / "map.txt"
    path.write_text(text)
    assert out([command, str(path)]) == (f"error: cannot parse {path}: {message}", 2)


def test_certify_substitution_stretch_golden():
    # 78 = 3 x 26: the count covers the words starting with 1 and 2, which
    # the letter rotation lets the sweep skip
    assert out(["certify-substitution", "stretch"]) == (
        "certified square-free: 78 images checked up to length 8", 0)


@pytest.mark.parametrize("argv, message", [
    (["shuffle", "01", "01", "0001"], "beta has 3 zeros but the first operand has 2 letters"),
    (["fixed-point", "rho", "--length", "5"], "fixed points need images over the source alphabet"),
    (["shuffle", "01", "01", "01x1"], "conducting sequences are binary, got letter 'x'"),
    (["enumerate", "--max-length", "2"], "table rows start at length 4, got 2"),
])
def test_library_rejections_are_usage_errors(argv, message):
    assert out(argv) == (f"error: {message}", 2)


def test_fixed_point_hall_prefix():
    payload, code = out(["fixed-point", "tau", "--length", "27"])
    assert code == 0
    assert payload == "012021012102012021020121012"


def test_fixed_point_rejects_a_negative_length():
    payload, code = out(["fixed-point", "h18", "--length", "-5"])
    assert code == 2
    assert payload.startswith("error:") and "--length" in payload


def test_construct_json_golden():
    payload, code = out(["construct", "--length", "3", "--json"])
    assert code == 0
    assert json.loads(payload) == {
        "n": 3,
        "u": "012",
        "beta": "001011",
        "w": "010212",
        "strategy": "base",
    }


def test_construct_survives_an_unwritable_cache(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(blocker / "sub"))
    payload, code = out(["construct", "--length", "50"])
    assert code == 0
    fields = dict(line.split(" = ") for line in payload.splitlines())
    witness = ShuffleWitness(fields["u"], fields["beta"], fields["w"])
    assert len(witness.u) == 50
    assert witness.verify()


def test_construct_rejects_length_2():
    _, code = out(["construct", "--length", "2"])
    assert code == 2


def test_coverage_small_json():
    payload, code = out(["coverage", "--max", "20", "--json"])
    assert code == 0
    report = json.loads(payload)
    assert report["complete"] is True
    assert report["gaps"] == []
    assert report["start"] == 3
    assert report["end"] == 20


def test_verify_lyndon_json_golden():
    payload, code = out(["verify", "lyndon", "--json"])
    assert code == 0
    assert json.loads(payload) == {
        "theorem": "lyndon",
        "prefix_length": 8,
        "holds": True,
        "first_violation": None,
    }


def test_verify_theorem5_small():
    payload, code = out(["verify", "theorem5", "--prefix", "18"])
    assert code == 0
    assert payload == "theorem5: holds to prefix 18"


def test_verify_abelian_uses_period():
    payload, code = out(["verify", "abelian", "--prefix", "2400", "--period", "48"])
    assert code == 0


def test_verify_abelian_rejects_a_negative_prefix():
    assert out(["verify", "abelian", "--prefix", "-5"]) == (
        "error: prefix length must be non-negative, got -5", 2)


def test_catalog_verify_passes():
    payload, code = out(["catalog", "verify"])
    assert code == 0
    assert payload.endswith("catalog checks passed")


def test_catalog_dump_is_json():
    payload, code = out(["catalog", "dump"])
    assert code == 0
    assert json.loads(payload)["entries"]


def test_unknown_command_is_usage_error():
    _, code = out(["frobnicate"])
    assert code == 2


def test_missing_required_flag_is_usage_error():
    _, code = out(["construct"])
    assert code == 2


# Square-free and 600 letters long: the self-shuffle walker keeps its path on
# an explicit stack, so it answers far past the depth of the call stack.
LONG_WORD = fixed_point_prefix(catalog.get_morphism("h18"), 0, 600)


def test_find_beta_answers_on_a_long_operand():
    payload, code = out(["find-beta", LONG_WORD])
    assert code == 0
    beta, word = payload.split(" -> ")
    assert shuffle_conducted(LONG_WORD, LONG_WORD, beta) == word
    assert is_square_free(word)


def test_unshuffle_answers_on_a_long_word():
    payload, code = out(["unshuffle", LONG_WORD + LONG_WORD])
    assert code == 0
    assert payload == f"u = {LONG_WORD}\nbeta = {'0' * 600}{'1' * 600}"


@pytest.mark.parametrize("argv, code", [
    (["squarefree", "0102"], 0),
    (["squarefree", "00"], 1),
    (["squarefree", "0a0"], 2),
])
def test_main_prints_the_payload_and_returns_the_exit_code(capsys, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    printed = run(argv).payload + "\n"
    assert (captured.out, captured.err) == (("", printed) if code == 2 else (printed, ""))


def fresh(argv):
    """run(argv) in a new interpreter, so no earlier call has used its parser."""
    script = (
        "import json, sys\n"
        "from shufflecraft.cli import run\n"
        "result = run(sys.argv[1:])\n"
        "print(json.dumps([result.payload, result.exit_code]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(shufflecraft.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env, check=True)
    return tuple(json.loads(proc.stdout))


def test_python_dash_m_runs_the_command_line():
    env = {**os.environ, "PYTHONPATH": str(Path(shufflecraft.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "shufflecraft", "squarefree", "00"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (1, "square at (0, 1): 0\n")


@pytest.mark.parametrize("first, second", [
    (["find-beta", "012", "--limit", "2"], ["find-beta", "012"]),
    (["find-beta", "012", "--all", "--limit", "2"], ["find-beta", "012", "--all"]),
    (["squarefree"], ["squarefree", "0102"]),
    (["construct", "--length", "19", "--json"], ["construct", "--length", "19"]),
    (["enumerate", "--max-length", "8", "--format", "csv"], ["enumerate", "--max-length", "8"]),
])
def test_a_reused_parser_answers_like_a_fresh_process(tmp_path, monkeypatch, first, second):
    monkeypatch.setenv("SHUFFLECRAFT_CACHE_DIR", str(tmp_path))
    back_to_back = [out(first), out(second)]
    assert back_to_back == [fresh(first), fresh(second)]


def test_reused_parser_evaluates_defaults_and_exclusions_per_call():
    assert out(["find-beta", "012", "--limit", "2"])[0].count("\n") == 1
    assert out(["find-beta", "012"]) == ("001011 -> 010212", 0)
    assert out(["find-beta", "012", "--all", "--limit", "2"]) == ("", 2)
    assert out(["find-beta", "012", "--all"])[1] == 0
    assert out(["squarefree"]) == ("", 2)
    assert out(["squarefree", "0102"]) == ("square-free", 0)
    assert out(["squarefree", "--help"]) == ("", 0)
    assert out(["squarefree", "0102"]) == ("square-free", 0)


def test_five_runs_build_the_parser_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "shufflecraft":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    for argv in (["squarefree", "0102"], ["squarefree", "00"], ["find-beta", "012"],
                 ["unshuffle", "010212"], ["frobnicate"]):
        run(argv)
    assert len(built) == 1
